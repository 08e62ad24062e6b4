# Runs the kgeval_reproduce targets that train on codex-s at one and at
# four worker threads and requires the same stdout: a training run uses one
# thread, and every evaluation is independent of the pool width. Wall times
# are dropped first: the "note: pinned pools" line and Table 5's
# "<seconds> sec" runtime cells. The masked --threads=1 stdout must also
# hash to expected_digest: every number these targets print is pinned, so a
# change that moves any of them fails here, at any thread count.
#
#   cmake -DBENCH=<path to kgeval_reproduce> -P reproduce_determinism.cmake

if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to kgeval_reproduce>")
endif()

set(expected_digest
    "0a0cf1cc7ac601052c82549391d82608afeb6bb176d14e5774129c8bd92fc5c6")

foreach(threads 1 4)
  execute_process(
    COMMAND ${BENCH}
            --only=table2,table3,table4,table5,table6_7_8,fig3b,fig3c,fig4,fig6,ablations
            --fast --dataset=codex-s --epochs=2 --threads=${threads}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL "0")
    message(FATAL_ERROR
            "--threads=${threads}: exit '${code}'; stdout: ${out}; "
            "stderr: ${err}")
  endif()
  string(REGEX REPLACE "note: pinned pools:[^\n]*\n" "" out "${out}")
  string(REGEX REPLACE "[0-9.]+ sec" "<time> sec" out "${out}")
  set(out_${threads} "${out}")
endforeach()

if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR
          "stdout differs between --threads=1 and --threads=4\n"
          "--threads=1:\n${out_1}\n--threads=4:\n${out_4}")
endif()

string(SHA256 digest "${out_1}")
if(NOT digest STREQUAL expected_digest)
  message(FATAL_ERROR
          "masked --threads=1 stdout hashes to ${digest}, pinned "
          "${expected_digest}. If the output change is intended, re-pin "
          "expected_digest in tests/reproduce_determinism.cmake and give the "
          "reason in CHANGES.md, as for the golden digests.\n"
          "--threads=1:\n${out_1}")
endif()
