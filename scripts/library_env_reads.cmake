# Library env reads: a sort's host settings come from its SortSpec, so the
# library reads the environment in two places only — DSMSORT_JOBS in
# sim/sweep.cpp and the cluster deployment knobs in cluster/lifecycle.cpp.
# Fails naming every other file under src/ that mentions getenv.
# Registered as the ctest lint.library_env_reads.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P scripts/library_env_reads.cmake
cmake_minimum_required(VERSION 3.20)
set(allowed sim/sweep.cpp cluster/lifecycle.cpp)
file(GLOB_RECURSE files RELATIVE ${SRC_DIR} ${SRC_DIR}/*)
set(offenders "")
foreach(f IN LISTS files)
  if(f IN_LIST allowed)
    continue()
  endif()
  file(STRINGS ${SRC_DIR}/${f} hits REGEX "getenv")
  if(hits)
    list(APPEND offenders ${f})
  endif()
endforeach()
if(offenders)
  message(FATAL_ERROR "getenv under src/ outside ${allowed}: ${offenders}")
endif()
message(STATUS "library env reads confined to ${allowed}")
