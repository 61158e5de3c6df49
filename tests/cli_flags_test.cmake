# Runs dpcluster_cli on malformed numbers and requires a refusal instead of a
# run on a silently misread value:
#  * a malformed or missing flag value exits 2 with usage;
#  * a malformed CSV cell exits 1 naming its line and column;
#  * a demo grid the generator refuses exits 1 naming the field, and so
#    does a --levels or --axis that no grid can take, on the demo and on a
#    CSV run alike;
#  * a CSV over the radius profile's 4096-row cap exits 1 naming the cap
#    and the coreset, as the daemon refuses it, and runs with --coreset.
# A well-formed command line over a well-formed CSV must still run (exit 0).
#
#   cmake -DCLI=<path to dpcluster_cli> -DWORKDIR=<scratch dir> \
#         -P tests/cli_flags_test.cmake

if(NOT CLI OR NOT WORKDIR)
  message(FATAL_ERROR "pass -DCLI=<path to dpcluster_cli> -DWORKDIR=<dir>")
endif()
file(MAKE_DIRECTORY "${WORKDIR}")

# The well-formed input: 24 points in two dimensions, with blanks around
# some cells and a CRLF line, which are not part of the numbers.
set(good_rows "")
foreach(i RANGE 0 23)
  math(EXPR x "${i} % 6")
  math(EXPR y "${i} / 6")
  string(APPEND good_rows "0.4${x}, 0.5${y}\n")
endforeach()
string(APPEND good_rows " 0.45 ,0.55\r\n")
set(good_csv "${WORKDIR}/good.csv")
file(WRITE "${good_csv}" "# x,y\n${good_rows}")

set(failures "")

# Flag cases: a flag and its value, separated by "|" (the last entry passes
# no value at all).
set(malformed_flags
    "--epsilon|4x"
    "--epsilon|nan"
    "--delta|abc"
    "--beta|inf"
    "--fraction|1e999"
    "--axis|1.0.0"
    "--t|-3"
    "--t|5x"
    "--k|2.5"
    "--levels|0x10"
    "--seed|-1"
    "--coreset-target|1e3"
    "--coreset-min-points|+5"
    "--stream-ticks|x"
    "--profile-index|grid"
    "--epsilon")
foreach(case IN LISTS malformed_flags)
  string(REPLACE "|" " " shown "${case}")
  string(REPLACE "|" ";" args "${case}")
  execute_process(
    COMMAND "${CLI}" --input "${good_csv}" --t 8 --algorithm noisy_mean_baseline
            --epsilon 4 ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "usage:")
    list(APPEND failures "flag '${shown}' -> status '${status}'")
  endif()
endforeach()

# Cell cases: the bad row is line 3 of the file (after a comment and one
# good row), and the bad cell's column is given after the "|".
set(malformed_cells
    "0.25,abc|2"
    "0.5x,0.1|1"
    "nan,0.2|1"
    "0.1,inf|2"
    "1e999,0.5|1"
    "0.1, |2"
    "-0x1,0.5|1")
set(index 0)
foreach(case IN LISTS malformed_cells)
  math(EXPR index "${index} + 1")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 row)
  list(GET parts 1 column)
  set(csv "${WORKDIR}/bad${index}.csv")
  file(WRITE "${csv}" "# x,y\n0.5,0.5\n${row}\n0.5,0.25\n")
  execute_process(
    COMMAND "${CLI}" --input "${csv}" --t 2 --algorithm noisy_mean_baseline
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT status STREQUAL "1" OR
     NOT err MATCHES "line 3, column ${column}:")
    list(APPEND failures
         "cell row '${row}' -> status '${status}', stderr '${err}'")
  endif()
endforeach()

# A well-formed number the demo generator cannot use is refused (exit 1
# naming the spec field), not an abort inside the generator.
execute_process(
  COMMAND "${CLI}" --demo --algorithm nonprivate --levels 1
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT status STREQUAL "1" OR NOT err MATCHES "error: InvalidArgument: .*levels")
  list(APPEND failures "demo --levels 1 -> status '${status}', stderr '${err}'")
endif()

# The demo honors --axis, so an axis no grid can take is refused there too.
execute_process(
  COMMAND "${CLI}" --demo --algorithm nonprivate --axis 0
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT status STREQUAL "1" OR NOT err MATCHES "error: InvalidArgument: --axis")
  list(APPEND failures "demo --axis 0 -> status '${status}', stderr '${err}'")
endif()

# The same refusal for a CSV run: a grid of one level or a non-positive axis
# exits 1 naming the flag instead of aborting in GridDomain.
foreach(case IN ITEMS "--levels|1" "--axis|0")
  string(REPLACE "|" ";" args "${case}")
  list(GET args 0 flag)
  execute_process(
    COMMAND "${CLI}" --input "${good_csv}" --t 8 --algorithm noisy_mean_baseline
            ${args}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT status STREQUAL "1" OR NOT err MATCHES "error: InvalidArgument: ${flag}")
    list(APPEND failures "csv '${case}' -> status '${status}', stderr '${err}'")
  endif()
endforeach()

# One row over the radius profile's cap: refused before any run (exit 1,
# naming the cap and the coreset, the one way to run such inputs) exactly
# as the daemon refuses it; with the coreset stage taking the input it runs.
set(large_rows "")
foreach(i RANGE 0 4096)
  math(EXPR x "${i} % 97")
  math(EXPR y "${i} % 89")
  string(APPEND large_rows "0.${x},0.${y}\n")
endforeach()
set(large_csv "${WORKDIR}/large.csv")
file(WRITE "${large_csv}" "${large_rows}")
execute_process(
  COMMAND "${CLI}" --input "${large_csv}" --t 500
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT status STREQUAL "1" OR NOT err MATCHES "n=4097" OR
   NOT err MATCHES "max_points=4096" OR NOT err MATCHES "coreset")
  list(APPEND failures "4097-row csv -> status '${status}', stderr '${err}'")
endif()
execute_process(
  COMMAND "${CLI}" --input "${large_csv}" --t 500 --coreset
          --coreset-min-points 4097
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT status STREQUAL "0" OR NOT out MATCHES "n=4097 d=2")
  list(APPEND failures "4097-row csv --coreset -> status '${status}' ${err}")
endif()

# Control: well-formed flags over the well-formed CSV run to completion.
execute_process(
  COMMAND "${CLI}" --input "${good_csv}" --t 8 --algorithm noisy_mean_baseline
          --epsilon 4 --delta 1e-9 --beta 0.1 --levels 1024 --axis 1.0
          --seed 7 --fraction 0.9 --k 2
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT status STREQUAL "0" OR NOT out MATCHES "n=25 d=2")
  list(APPEND failures "well-formed control -> status '${status}' ${err}")
endif()

if(failures)
  list(JOIN failures "\n  " shown)
  message(FATAL_ERROR "dpcluster_cli number parsing:\n  ${shown}")
endif()
