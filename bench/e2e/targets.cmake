# Build hook for seer-bench, the end-to-end benchmark program, kept outside the
# project's own build files:
#
#   cmake -S . -B build-bench -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/targets.cmake
#
# project() includes this file before the top-level CMakeLists.txt sets
# its compile options, so the target is created by a deferred call at
# the end of the top-level directory: seer-bench then compiles with the
# same flags (warnings, sanitizers) as the libraries it links, which is
# what lets its release guard see a sanitizer build.
include_guard(GLOBAL)

set(SEER_BENCH_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})

function(seer_bench_e2e_target)
  add_executable(seer-bench ${SEER_BENCH_E2E_DIR}/seer_bench.cc)
  target_link_libraries(seer-bench PRIVATE seer_core seer_benchmarks seer_hls)
  set_target_properties(seer-bench PROPERTIES
    CXX_STANDARD 20
    CXX_STANDARD_REQUIRED ON
    CXX_EXTENSIONS OFF)
  target_compile_definitions(seer-bench PRIVATE
    SEER_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endfunction()

cmake_language(DEFER CALL seer_bench_e2e_target)
