# Runs one JSON-writing bench at full length in the current directory and
# byte-compares the JSON it writes against the committed copy.  The bench
# must be deterministic for its fixed seed (simulated time only, no host
# timings in the file).  Driven by ctest (label `golden`, see
# bench/CMakeLists.txt).
#
# Variables: BENCH_BIN, JSON (file name the bench writes), EXPECTED_JSON.
file(REMOVE "${JSON}")
execute_process(COMMAND "${BENCH_BIN}" RESULT_VARIABLE run_rc OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} failed (${run_rc})")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "${BENCH_BIN} wrote no ${JSON}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${JSON}" "${EXPECTED_JSON}"
  RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
  message(FATAL_ERROR
    "${JSON} differs from the committed ${EXPECTED_JSON}\n"
    "If the model intentionally changed, re-record it by running the bench "
    "from the repository root.")
endif()
message(STATUS "${JSON} byte-identical to ${EXPECTED_JSON}")
