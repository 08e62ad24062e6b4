# Runs a bench binary on malformed shared flags and requires each run to
# print the usage and exit 2 before it does any work.
#
#   cmake -DBENCH=<path to a bench binary> -P bench_flags_test.cmake
#
# Any bench works: every one parses its flags through bench::ParseArgs.

if(NOT BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to a bench binary>")
endif()

set(bad_flags
    --threads=2x --threads=abc --threads=0 --threads=-1 --threads=+2
    "--threads= 2" --threads= --threads=99999999999999999999
    --epochs=abc --epochs=0 --epochs=-3 --epochs=1.5 --epochs=
    --half-width=nan --half-width=-nan --half-width=inf --half-width=0
    --half-width=1 --half-width=-0.1 --half-width=1.5 --half-width=0.1x
    --half-width= --half-width=1e400
    --no-such-flag)

foreach(flag IN LISTS bad_flags)
  execute_process(COMMAND ${BENCH} --dataset=codex-s ${flag}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 10)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "'${flag}': expected usage and exit 2, got "
            "'${code}'; stdout: ${out}; stderr: ${err}")
  endif()
endforeach()

# Well-formed values pass the parser and the bench runs to completion.
execute_process(COMMAND ${BENCH} --dataset=codex-s --threads=2 --epochs=3
                        --half-width=0.05
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT code STREQUAL "0" OR err MATCHES "usage:")
  message(FATAL_ERROR "valid flags were rejected: exit '${code}'; "
          "stderr: ${err}")
endif()
