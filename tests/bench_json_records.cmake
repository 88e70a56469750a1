# Runs one bench binary with --json and fails unless the file it wrote
# holds the expected number of records (one per run).
#
#   cmake -DBENCH=<binary> "-DARGS=<flags>" -DOUT=<file> -DRECORDS=<n>
#         -P bench_json_records.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${OUT}")
execute_process(COMMAND "${BENCH}" ${args} --json "${OUT}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()
if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "${BENCH} took --json but wrote no ${OUT}")
endif()
file(READ "${OUT}" text)
string(REGEX MATCHALL "\"schema\"" records "${text}")
list(LENGTH records n)
if(NOT n EQUAL RECORDS)
  message(FATAL_ERROR "${OUT} holds ${n} records, expected ${RECORDS}")
endif()
