# Adds the performance ledger (bench/ledger/CMakeLists.txt) to the top-level
# build. Pass it when configuring the repository root:
#
#   cmake -S . -B .bench_build/tree -DCMAKE_PROJECT_INCLUDE=$PWD/bench/ledger/in_tree.cmake
#
# CMake reads this file right after the top-level project() call. The
# deferred include runs once the top-level CMakeLists.txt is done, so the
# ledger's targets get the top-level compile options and can link every
# library target.
if(CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  # A deferred call expands its arguments when it runs: keep the path in a
  # variable of its own.
  set(DG_LEDGER_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
  cmake_language(DEFER CALL include "${DG_LEDGER_LISTS}")
endif()
