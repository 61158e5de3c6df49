# Runs dpcluster_serve with each malformed numeric flag and requires a usage
# exit (status 2, "usage:" on stderr) rather than a daemon that starts with a
# silently misread value. A well-formed command line must still start
# serving, which shows up as the per-case timeout firing.
#
#   cmake -DSERVE=<path to dpcluster_serve> -P tests/serve_flags_test.cmake

if(NOT SERVE)
  message(FATAL_ERROR "pass -DSERVE=<path to dpcluster_serve>")
endif()

# One case per entry: a flag and its value, separated by "|" (the last
# entry passes no value at all).
set(malformed
    "--port|abc"
    "--port|0x"
    "--port|70000"
    "--port|-1"
    "--workers|2x"
    "--workers|0"
    "--workers|-2"
    "--queue-depth|1e3"
    "--max-requests-per-connection|-1"
    "--idle-timeout-ms|50ms"
    "--budget-eps|nan"
    "--budget-eps|inf"
    "--budget-eps|0"
    "--budget-eps|4eps"
    "--budget-delta|-1"
    "--budget-delta|1"
    "--budget-delta|1e-6x"
    "--tenant-budget|alice=nan:1e-7"
    "--tenant-budget|alice=2.5:-1"
    "--tenant-budget|alice=2.5x:1e-7"
    "--cache-capacity|8 "
    "--max-points|+5"
    "--seed|-3"
    "--seed|18446744073709551616"
    "--workers")

set(failures "")
foreach(case IN LISTS malformed)
  string(REPLACE "|" " " shown "${case}")
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND "${SERVE}" --port 0 ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 5)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "usage:")
    list(APPEND failures "'${shown}' -> status '${status}'")
  endif()
endforeach()

# Control: the same binary accepts well-formed values and starts listening
# (killed by the timeout).
execute_process(
  COMMAND "${SERVE}" --port 0 --workers 2 --queue-depth 8
          --max-requests-per-connection 10 --idle-timeout-ms 500
          --budget-eps 2.5 --budget-delta 1e-7 --tenant-budget alice=2.5:1e-7
          --cache-capacity 2 --max-points 4096 --seed 7
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 2)
if(NOT out MATCHES "listening on 127\\.0\\.0\\.1:")
  list(APPEND failures "well-formed flags did not start the daemon: '${status}' ${err}")
endif()

if(failures)
  list(JOIN failures "\n  " shown)
  message(FATAL_ERROR "dpcluster_serve flag parsing:\n  ${shown}")
endif()
