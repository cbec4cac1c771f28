# src/CMakeLists.txt calls ${CMAKE_SOURCE_DIR}/cmake/GenFingerprint.cmake,
# and perfbench is the source dir of the benchmark build: forward to
# the repository's script so the fingerprint is computed one way only.
include("${CMAKE_CURRENT_LIST_DIR}/../../cmake/GenFingerprint.cmake")
