# Figure goldens: regenerate the per-rank BUSY/LMEM/RMEM/SYNC tables of
# Figures 4 and 8 and require them byte-identical to the committed copies
# in results/csv/. The tables print virtual time to 0.1 us per rank, so any
# change to what a sort charges shows up here; host-speed work must not.
# The figures run twice, on the default engine and with
# DSMSORT_ENGINE=threads (the bench harness's engine switch): the host
# engine must not move a virtual time. A DSMSORT_ENGINE value the harness
# does not know must fail, naming the variable.
# Registered as the ctest bench.figure_goldens.
#
# Usage: cmake -DBENCH_DIR=<dir with the fig binaries> -DOUT_DIR=<csv dir>
#              -DGOLDEN_DIR=<results/csv> -P scripts/figure_goldens.cmake
set(figs fig4_radix_breakdown fig8_sample_breakdown)
set(tables fig4_CC-SAS fig4_CC-SAS-NEW fig4_MPI fig4_SHMEM
           fig8_CC-SAS fig8_MPI fig8_SHMEM)

# One pass: run both figures under `env_args` (a `cmake -E env` argument),
# require `engine: <engine>` in each banner, then compare the seven CSVs.
function(golden_pass engine env_args out_dir)
  file(MAKE_DIRECTORY ${out_dir})
  foreach(fig ${figs})
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${env_args}
                            ${BENCH_DIR}/${fig} --csv ${out_dir}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${fig} (${env_args}) failed: ${rc}")
    endif()
    if(NOT out MATCHES "engine: ${engine} ")
      message(FATAL_ERROR "${fig} (${env_args}) banner does not name "
                          "engine: ${engine}")
    endif()
  endforeach()

  set(differ "")
  foreach(table ${tables})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${out_dir}/${table}.csv ${GOLDEN_DIR}/${table}.csv
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      list(APPEND differ ${table}.csv)
    endif()
  endforeach()
  if(differ)
    message(FATAL_ERROR "figure goldens (engine ${engine}) differ from "
                        "${GOLDEN_DIR}: ${differ}")
  endif()
endfunction()

golden_pass(coop --unset=DSMSORT_ENGINE ${OUT_DIR})
golden_pass(threads DSMSORT_ENGINE=threads ${OUT_DIR}/threads)

execute_process(COMMAND ${CMAKE_COMMAND} -E env DSMSORT_ENGINE=fibers
                        ${BENCH_DIR}/fig4_radix_breakdown
                        --csv ${OUT_DIR}/threads
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "DSMSORT_ENGINE")
  message(FATAL_ERROR "DSMSORT_ENGINE=fibers must fail naming the "
                      "variable; got rc ${rc}: ${err}")
endif()
message(STATUS "7 figure goldens byte-identical under coop and threads")
