# Runs one reproduction bench at full length in the current directory and
# byte-compares every harmony_bench_${PREFIX}*.csv it writes against the
# committed copy in GOLDEN_DIR.  The bench must write exactly the golden
# set for its prefix: a missing, extra or differing CSV fails the test.
# Driven by ctest (label `golden`, see bench/CMakeLists.txt).
#
# Variables: BENCH_BIN, PREFIX, GOLDEN_DIR.
file(GLOB stale harmony_bench_*.csv)
if(stale)
  file(REMOVE ${stale})
endif()

execute_process(COMMAND "${BENCH_BIN}" --threads 0 RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} failed (${run_rc})")
endif()

file(GLOB produced RELATIVE "${CMAKE_CURRENT_BINARY_DIR}"
     "harmony_bench_${PREFIX}*.csv")
file(GLOB expected RELATIVE "${GOLDEN_DIR}"
     "${GOLDEN_DIR}/harmony_bench_${PREFIX}*.csv")
list(SORT produced)
list(SORT expected)
if(NOT expected)
  message(FATAL_ERROR "no golden harmony_bench_${PREFIX}*.csv in ${GOLDEN_DIR}")
endif()
if(NOT produced STREQUAL expected)
  message(FATAL_ERROR
    "CSV set differs from the goldens\n  wrote:  ${produced}\n"
    "  golden: ${expected}")
endif()

set(failed "")
foreach(csv IN LISTS expected)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${csv}" "${GOLDEN_DIR}/${csv}"
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    list(APPEND failed "${csv}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR
    "differs from the committed golden in ${GOLDEN_DIR}: ${failed}\n"
    "If the model intentionally changed, regenerate the CSVs by running "
    "the bench from the repository root.")
endif()
list(LENGTH expected count)
message(STATUS "${count} golden CSV(s) byte-identical")
