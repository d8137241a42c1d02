# Fails when a committed golden CSV is compared by no golden test: every
# GOLDEN_DIR/harmony_bench_*.csv must start with harmony_bench_<prefix> for
# one of the prefixes that ah_add_golden_test registered.  Without this, a
# CSV whose bench is gone stays in tests/golden/ and is never checked.
# Driven by ctest (unlabelled, see bench/CMakeLists.txt).
#
# Variables: PREFIXES (comma-separated), GOLDEN_DIR.
string(REPLACE "," ";" prefixes "${PREFIXES}")

file(GLOB goldens RELATIVE "${GOLDEN_DIR}" "${GOLDEN_DIR}/harmony_bench_*.csv")
list(SORT goldens)
set(orphans "")
foreach(csv IN LISTS goldens)
  set(covered FALSE)
  foreach(prefix IN LISTS prefixes)
    string(FIND "${csv}" "harmony_bench_${prefix}" at)
    if(at EQUAL 0)
      set(covered TRUE)
      break()
    endif()
  endforeach()
  if(NOT covered)
    list(APPEND orphans "${csv}")
  endif()
endforeach()
if(orphans)
  message(FATAL_ERROR
    "golden CSV(s) in ${GOLDEN_DIR} that no golden test compares: ${orphans}\n"
    "Register the bench that writes them with ah_add_golden_test, or delete "
    "them with the bench.")
endif()
list(LENGTH goldens count)
message(STATUS "${count} golden CSV(s), each covered by a registered prefix")
