# The benchmark's targets, defined in the repository's root directory scope
# (see attach.cmake); run.sh is the entry point.
add_library(jobbench_core STATIC
  ${JOBBENCH_DIR}/src/workload.cpp
  ${JOBBENCH_DIR}/src/ledger.cpp
  ${JOBBENCH_DIR}/src/check.cpp
  ${JOBBENCH_DIR}/src/server.cpp
)
target_include_directories(jobbench_core PUBLIC ${JOBBENCH_DIR}/src)
target_link_libraries(jobbench_core PUBLIC lo_cluster lo_testkit lo_service
                      lo_core lo_verify lo_sizing lo_layout lo_sim lo_circuit
                      lo_device lo_geom lo_tech)

add_executable(jobbench ${JOBBENCH_DIR}/src/main.cpp ${JOBBENCH_DIR}/src/e2e.cpp
               ${JOBBENCH_DIR}/src/traced.cpp)
target_link_libraries(jobbench PRIVATE jobbench_core)

add_executable(jobbench_tests ${JOBBENCH_DIR}/tests/jobbench_test.cpp)
target_link_libraries(jobbench_tests PRIVATE jobbench_core GTest::gtest GTest::gtest_main)

set_target_properties(jobbench jobbench_tests PROPERTIES
                      RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/jobbench)
