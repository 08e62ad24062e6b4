# Runs kgeval_reproduce on malformed flags and selectors and requires each
# run to print the usage and exit 2 before it does any work. Then checks
# that a well-formed KGEVAL_THREADS is accepted and a malformed one is not.
#
#   cmake -DBENCH=<path to kgeval_reproduce> -P bench_flags_test.cmake

if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to kgeval_reproduce>")
endif()

set(bad_flags
    --threads=2x --threads=abc --threads=0 --threads=-1 --threads=+2
    "--threads= 2" --threads= --threads=99999999999999999999
    --epochs=abc --epochs=0 --epochs=-3 --epochs=1.5 --epochs=
    --half-width=nan --half-width=-nan --half-width=inf --half-width=0
    --half-width=1 --half-width=-0.1 --half-width=1.5 --half-width=0.1x
    --half-width= --half-width=1e400
    --only= --only=table10 --only=fig3a,,fig3b
    --dataset=nope --dataset=
    --no-such-flag)

foreach(flag IN LISTS bad_flags)
  execute_process(COMMAND ${BENCH} --only=table4 --dataset=codex-s ${flag}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 10)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "'${flag}': expected usage and exit 2, got "
            "'${code}'; stdout: ${out}; stderr: ${err}")
  endif()
endforeach()

# Well-formed values pass the parser and the target runs to completion.
execute_process(COMMAND ${BENCH} --only=table4 --dataset=codex-s --threads=2
                        --epochs=3 --half-width=0.05
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT code STREQUAL "0" OR err MATCHES "usage:")
  message(FATAL_ERROR "valid flags were rejected: exit '${code}'; "
          "stderr: ${err}")
endif()

# Without --threads the pool size comes from KGEVAL_THREADS: a well-formed
# value runs the target (table2 builds the pool), a malformed one stops the
# run with a message that names the variable.
foreach(threads 2 2x)
  set(ENV{KGEVAL_THREADS} "${threads}")
  execute_process(COMMAND ${BENCH} --only=table2 --fast --dataset=codex-s
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(threads STREQUAL "2")
    if(NOT code STREQUAL "0")
      message(FATAL_ERROR "KGEVAL_THREADS=2 was rejected: exit '${code}'; "
              "stderr: ${err}")
    endif()
  elseif(code STREQUAL "0" OR NOT err MATCHES "KGEVAL_THREADS")
    message(FATAL_ERROR "KGEVAL_THREADS=${threads}: expected a failed run "
            "naming the variable, got '${code}'; stderr: ${err}")
  endif()
endforeach()
unset(ENV{KGEVAL_THREADS})
