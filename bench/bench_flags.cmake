# Flag check of the bench binaries (ParseBenchFlags, bench_util.h): an
# unknown flag must exit non-zero and --help must exit 0, both before any
# work, so neither may write the BENCH_core.json a real run writes into the
# working directory. Invoked by ctest as
#   cmake -DBENCH=<core_build binary> -DSTORE_BENCH=<store_roundtrip binary>
#         -DWORK_DIR=<scratch> -P bench_flags.cmake

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

execute_process(COMMAND ${BENCH} --bogus-flag
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "core_build --bogus-flag exited 0:\n${out}\n${err}")
endif()
if(NOT err MATCHES "--bogus-flag")
  message(FATAL_ERROR "core_build --bogus-flag did not name the flag:\n${err}")
endif()
if(EXISTS ${WORK_DIR}/BENCH_core.json)
  message(FATAL_ERROR "core_build --bogus-flag wrote BENCH_core.json")
endif()

execute_process(COMMAND ${BENCH} --ticks 100 --help
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "core_build --help exited ${code}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "usage: .*--ticks")
  message(FATAL_ERROR "core_build --help printed no usage:\n${out}")
endif()
if(EXISTS ${WORK_DIR}/BENCH_core.json)
  message(FATAL_ERROR "core_build --help wrote BENCH_core.json")
endif()

# A malformed or zero --reps is a usage error, not a crash after setup.
foreach(bench ${BENCH} ${STORE_BENCH})
  foreach(reps abc 0)
    execute_process(COMMAND ${bench} --ticks 100 --reps ${reps}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE code ERROR_VARIABLE err)
    if(NOT code EQUAL 2 OR NOT err MATCHES "--reps must be a positive")
      message(FATAL_ERROR "${bench} --reps ${reps} exited ${code}:\n${err}")
    endif()
  endforeach()
endforeach()
file(GLOB written ${WORK_DIR}/*)
if(written)
  message(FATAL_ERROR "a rejected bench command line wrote ${written}")
endif()

message(STATUS "bench flags test passed")
