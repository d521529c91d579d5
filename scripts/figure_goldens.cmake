# Figure goldens: regenerate the per-rank BUSY/LMEM/RMEM/SYNC tables of
# Figures 4 and 8 and require them byte-identical to the committed copies
# in results/csv/. The tables print virtual time to 0.1 us per rank, so any
# change to what a sort charges shows up here; host-speed work must not.
# Registered as the ctest bench.figure_goldens.
#
# Usage: cmake -DBENCH_DIR=<dir with the fig binaries> -DOUT_DIR=<csv dir>
#              -DGOLDEN_DIR=<results/csv> -P scripts/figure_goldens.cmake
set(figs fig4_radix_breakdown fig8_sample_breakdown)
set(tables fig4_CC-SAS fig4_CC-SAS-NEW fig4_MPI fig4_SHMEM
           fig8_CC-SAS fig8_MPI fig8_SHMEM)

foreach(fig ${figs})
  execute_process(COMMAND ${BENCH_DIR}/${fig} --csv ${OUT_DIR}
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${fig} failed: ${rc}")
  endif()
endforeach()

set(differ "")
foreach(table ${tables})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${OUT_DIR}/${table}.csv ${GOLDEN_DIR}/${table}.csv
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND differ ${table}.csv)
  endif()
endforeach()
if(differ)
  message(FATAL_ERROR "figure goldens differ from ${GOLDEN_DIR}: ${differ}")
endif()
message(STATUS "7 figure goldens byte-identical")
