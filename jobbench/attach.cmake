# Injected into the repository's own CMake project by run.sh through
# CMAKE_PROJECT_INCLUDE.  The benchmark targets are defined only once the
# root CMakeLists.txt has finished, so the benchmark program and the servers
# it times are built with exactly the repository's compiler flags, language
# standard and build type -- the same binaries the tier-1 build produces.
set(JOBBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${JOBBENCH_DIR}/targets.cmake")
