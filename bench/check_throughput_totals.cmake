# Runs bench_throughput at full length in the current directory and checks
# that every mix's deterministic "events" and "requests" totals equal those
# in the committed BENCH_throughput.json.  The totals count what the model
# simulates, not how fast the host runs it, so they pin behaviour: a change
# that moves one has changed the model.  Rates in the file are not compared.
# Driven by ctest (label `golden`, see bench/CMakeLists.txt).
#
# Variables: BENCH_BIN, EXPECTED_JSON.

# One "<mix> events=<n> requests=<n>" entry per end-to-end run in `json`.
# Only the "after" block's entries carry totals; the "before" block's end
# at their closing brace first and never match.
function(read_totals json out)
  string(REGEX MATCHALL
    "\"mix\": \"[A-Za-z]+\"[^}]*\"events\": [0-9]+, \"requests\": [0-9]+"
    runs "${json}")
  set(totals "")
  foreach(run IN LISTS runs)
    string(REGEX REPLACE
      "^\"mix\": \"([A-Za-z]+)\".*\"events\": ([0-9]+), \"requests\": ([0-9]+)$"
      "\\1 events=\\2 requests=\\3" entry "${run}")
    list(APPEND totals "${entry}")
  endforeach()
  set(${out} "${totals}" PARENT_SCOPE)
endfunction()

file(REMOVE BENCH_throughput.json)
execute_process(COMMAND "${BENCH_BIN}" RESULT_VARIABLE run_rc
                OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH_BIN} failed (${run_rc})")
endif()
if(NOT EXISTS BENCH_throughput.json)
  message(FATAL_ERROR "${BENCH_BIN} wrote no BENCH_throughput.json")
endif()

file(READ BENCH_throughput.json produced_json)
file(READ "${EXPECTED_JSON}" expected_json)
read_totals("${produced_json}" produced)
read_totals("${expected_json}" expected)
list(LENGTH expected count)
if(count EQUAL 0)
  message(FATAL_ERROR "no per-mix events/requests totals in ${EXPECTED_JSON}")
endif()
if(NOT produced STREQUAL expected)
  message(FATAL_ERROR
    "bench_throughput totals differ from ${EXPECTED_JSON}\n"
    "  measured:  ${produced}\n"
    "  committed: ${expected}\n"
    "If the model intentionally changed, re-record BENCH_throughput.json by "
    "running bench_throughput from the repository root.")
endif()
message(STATUS "${count} mix totals identical: ${produced}")
