# Adds the benchmark to the program's own CMake project without editing it.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so CMake includes this file right after the root `project()` call. The
# benchmark's CMakeLists.txt is deferred to the end of the root
# CMakeLists.txt, where every library, compile option and definition
# (ZL_OBS, ZL_NATIVE, ...) is already in place: the benchmark compiles with
# exactly the program's flags.
include_guard(GLOBAL)
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_SOURCE_DIR}/CMakeLists.txt")
