# Runs every kgeval_reproduce target once on codex-s (--fast, one epoch)
# and requires exit 0, each target's section header, and a data row under
# Table 8 (--fast trains three models, the fewest Kendall-Tau ranks).
#
#   cmake -DBENCH=<path to kgeval_reproduce> -P reproduce_smoke.cmake

if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to kgeval_reproduce>")
endif()

execute_process(COMMAND ${BENCH} --fast --dataset=codex-s --epochs=1
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "exit '${code}'; stdout: ${out}; stderr: ${err}")
endif()

foreach(header "Table 2:" "Table 3:" "Table 4:" "Table 5:" "Table 6:"
               "Table 7:" "Table 8:" "Table 9:" "Figure 3a:" "Figure 3b:"
               "Figure 3c:" "Figure 4/5:" "Figure 6a:" "Figure 6b:"
               "Figure 6c:" "Ablation 1:")
  string(FIND "${out}" "==== ${header}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "no '==== ${header}' header; stdout: ${out}")
  endif()
endforeach()

# Table 8's header row and rule, then at least one codex-s row.
if(NOT out MATCHES "==== Table 8:[^\n]*\n\nDataset [^\n]*\n[- ]+\ncodex-s ")
  message(FATAL_ERROR "Table 8 has no data row; stdout: ${out}")
endif()
