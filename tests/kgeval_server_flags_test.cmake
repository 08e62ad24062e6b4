# Runs kgeval-server on malformed numeric flags and requires each run to
# print the usage and exit 2 before it binds a port. Malformed
# KGEVAL_THREADS values and an unknown KGEVAL_KERNELS name must likewise
# stop the server, naming the variable, before it prints LISTENING.
#
#   cmake -DSERVER=<path to kgeval-server> -P kgeval_server_flags_test.cmake
#
# A binary that accepts a bad value goes on to listen; the per-run timeout
# turns that into a failure instead of a hang.

if(NOT SERVER)
  message(FATAL_ERROR "pass -DSERVER=<path to kgeval-server>")
endif()

set(bad_flags
    --port=70000 --port=65536 --port=abc --port=-1 --port= --port=+80
    "--port= 80" --port=80x --port=1.5
    --threads=-1 --threads=abc --threads=99999999999999999999999
    --executors=-1 --executors=2x
    --max-queued=-5 --max-queued=1.5
    --deadline=-1 --deadline=abc --deadline=nan --deadline=inf
    --deadline=1e400 --deadline=
    --idle-timeout=-0.5 --idle-timeout=inf --idle-timeout=5s)

foreach(flag IN LISTS bad_flags)
  execute_process(COMMAND ${SERVER} --port=0 ${flag}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 5)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "'${flag}': expected usage and exit 2, got "
            "'${code}'; stdout: ${out}; stderr: ${err}")
  endif()
endforeach()

# Well-formed values pass the parser: the run then stops at the bind
# address, a different path (exit 1) that prints no usage.
execute_process(COMMAND ${SERVER} --port=0 --threads=2 --executors=3
                        --max-queued=0 --deadline=1.5 --idle-timeout=0
                        --host=not-an-address
                RESULT_VARIABLE code
                ERROR_VARIABLE err
                TIMEOUT 5)
if(NOT code STREQUAL "1" OR err MATCHES "usage:"
   OR NOT err MATCHES "not an IPv4 address")
  message(FATAL_ERROR "valid numeric flags were rejected: exit '${code}'; "
          "stderr: ${err}")
endif()

# KGEVAL_THREADS is parsed as strictly as --threads: a whole positive
# decimal that fits in int32.
set(bad_threads 2x 3abc -5 0 -0 +4 " 4" 1.5 2147483648
    99999999999999999999)
foreach(threads IN LISTS bad_threads)
  set(ENV{KGEVAL_THREADS} "${threads}")
  execute_process(COMMAND ${SERVER} --port=0
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 5)
  if(code STREQUAL "0" OR NOT err MATCHES "KGEVAL_THREADS"
     OR out MATCHES "LISTENING")
    message(FATAL_ERROR "KGEVAL_THREADS='${threads}': expected a failed "
            "start naming the variable, got '${code}'; stdout: ${out}; "
            "stderr: ${err}")
  endif()
endforeach()
unset(ENV{KGEVAL_THREADS})

# KGEVAL_KERNELS is resolved before the server binds: an unknown name stops
# it, naming the variable, without a LISTENING line.
set(ENV{KGEVAL_KERNELS} "no-such-kernel")
execute_process(COMMAND ${SERVER} --port=0
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 5)
if(code STREQUAL "0" OR NOT err MATCHES "KGEVAL_KERNELS"
   OR out MATCHES "LISTENING" OR err MATCHES "listening on")
  message(FATAL_ERROR "KGEVAL_KERNELS=no-such-kernel: expected a failed "
          "start naming the variable before binding, got '${code}'; "
          "stdout: ${out}; stderr: ${err}")
endif()
unset(ENV{KGEVAL_KERNELS})
