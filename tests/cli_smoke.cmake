# Smoke test of the rfidclean_cli workflow: generate -> clean -> stay ->
# pattern -> sample, each step checked for a zero exit code and the files it
# promises. Invoked by ctest as
#   cmake -DCLI=<path-to-binary> -DWORK_DIR=<scratch> -P cli_smoke.cmake

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

# Runs a command that must exit nonzero AND mention `substr` in its output —
# bad flags must produce a diagnostic, not a silent fallback or a crash.
function(expect_fail substr)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "expected nonzero exit: ${ARGN}\n${out}\n${err}")
  endif()
  string(FIND "${out}${err}" "${substr}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "expected '${substr}' in the diagnostics of: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

run_step(${CLI} generate --floors 2 --duration 90 --seed 5 --out ${WORK_DIR})
foreach(artifact building.map readings.csv truth.txt)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "generate did not write ${artifact}")
  endif()
endforeach()

run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --families DU+LT
         --dot ${WORK_DIR}/graph.dot --audit)
if(NOT EXISTS ${WORK_DIR}/graph.ctg)
  message(FATAL_ERROR "clean did not write graph.ctg")
endif()
if(NOT EXISTS ${WORK_DIR}/graph.dot)
  message(FATAL_ERROR "clean did not write graph.dot")
endif()

# Re-clean with stats emission: the JSON must land where asked and carry
# the counter block.
run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --families DU+LT
         --stats=${WORK_DIR}/stats.json)
if(NOT EXISTS ${WORK_DIR}/stats.json)
  message(FATAL_ERROR "clean --stats did not write stats.json")
endif()
file(READ ${WORK_DIR}/stats.json stats_payload)
foreach(field stats_enabled counters phases histograms forward_edges)
  string(FIND "${stats_payload}" "\"${field}\"" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "stats.json lacks \"${field}\":\n${stats_payload}")
  endif()
endforeach()

run_step(${CLI} stay --dir ${WORK_DIR} --time 45)
run_step(${CLI} pattern --dir ${WORK_DIR} --pattern "? F0.Corridor ?")
run_step(${CLI} sample --dir ${WORK_DIR} --count 2 --seed 7)
run_step(${CLI} report --dir ${WORK_DIR} --audit)

# Error paths must fail cleanly, not crash.
execute_process(COMMAND ${CLI} stay --dir ${WORK_DIR} --time 100000
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "out-of-range stay query should fail")
endif()
execute_process(COMMAND ${CLI} clean --dir ${WORK_DIR}/does-not-exist
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "clean on a missing directory should fail")
endif()

# Malformed flag values must be diagnosed up front, never coerced (atoi
# would quietly read "abc" as 0) or deferred until after minutes of work.
expect_fail("--jobs must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --jobs 0)
expect_fail("--jobs must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --jobs abc)
expect_fail("--jobs must be a positive integer"
            ${CLI} clean --dir ${WORK_DIR} --jobs -2)
expect_fail("--tags must be a non-negative integer"
            ${CLI} generate --out ${WORK_DIR} --tags -3)
expect_fail("--tags must be a non-negative integer"
            ${CLI} generate --out ${WORK_DIR} --tags abc)
expect_fail("cannot write stats file"
            ${CLI} clean --dir ${WORK_DIR}
            --stats=${WORK_DIR}/no-such-subdir/stats.json)

# A clean that fails after the --stats writability probe must leave an
# explicit error object behind, not the probe's zero-byte file: a consumer
# polling the path has to be able to tell "run failed" from "interrupted
# mid-write".
execute_process(COMMAND ${CLI} clean --dir ${WORK_DIR}/does-not-exist
                --stats=${WORK_DIR}/failed_stats.json
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "clean on a missing directory should fail")
endif()
if(NOT EXISTS ${WORK_DIR}/failed_stats.json)
  message(FATAL_ERROR "failed clean removed the stats file entirely")
endif()
file(READ ${WORK_DIR}/failed_stats.json stub_payload)
string(FIND "${stub_payload}" "\"status\": \"error\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR
          "failed clean left a stats file without the error stub: "
          "'${stub_payload}'")
endif()

# The three report flags behave symmetrically: each probes its output path
# for writability before any cleaning work, and each leaves a well-formed
# artifact behind when the clean itself fails (--stats/--explain an error
# stub, --trace the timeline of the failure).
expect_fail("cannot write trace file"
            ${CLI} clean --dir ${WORK_DIR}
            --trace=${WORK_DIR}/no-such-subdir/trace.json)
expect_fail("cannot write explain file"
            ${CLI} clean --dir ${WORK_DIR}
            --explain=${WORK_DIR}/no-such-subdir/explain.json)
execute_process(COMMAND ${CLI} clean --dir ${WORK_DIR}/does-not-exist
                --explain=${WORK_DIR}/failed_explain.json
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "clean on a missing directory should fail")
endif()
if(NOT EXISTS ${WORK_DIR}/failed_explain.json)
  message(FATAL_ERROR "failed clean removed the explain file entirely")
endif()
file(READ ${WORK_DIR}/failed_explain.json stub_payload)
string(FIND "${stub_payload}" "\"status\": \"error\"" found)
if(found EQUAL -1)
  message(FATAL_ERROR
          "failed clean left an explain file without the error stub: "
          "'${stub_payload}'")
endif()

# Usage errors — an unknown flag, a malformed or out-of-range number — exit
# 2 with a diagnostic naming the flag, before any work: generate writes no
# file, and a typo'd flag is never ignored (--job 4 used to clean on one
# job, --time abc used to answer for t=0).
function(expect_usage_error substr)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got ${code}: ${ARGN}\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${substr}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "expected '${substr}' in the diagnostics of: ${ARGN}\n${err}")
  endif()
endfunction()

foreach(bad "--floors;abc" "--duration;0" "--duration;abc" "--floors;0")
  set(fresh ${WORK_DIR}/usage_generate)
  file(REMOVE_RECURSE ${fresh})
  file(MAKE_DIRECTORY ${fresh})
  list(GET bad 0 flag)
  expect_usage_error("${flag} must be a positive integer"
                     ${CLI} generate --out ${fresh} ${bad})
  file(GLOB written ${fresh}/*)
  if(written)
    message(FATAL_ERROR "generate ${bad} wrote files: ${written}")
  endif()
endforeach()
expect_usage_error("--time must be an integer"
                   ${CLI} stay --dir ${WORK_DIR} --time abc)
expect_usage_error("unknown flag --job"
                   ${CLI} clean --dir ${WORK_DIR} --job 4)
expect_usage_error("unknown flag --stor"
                   ${CLI} clean --dir ${WORK_DIR} --jobs 4 --stor F)
expect_usage_error("unexpected argument 'extra'"
                   ${CLI} report --dir ${WORK_DIR} extra)
expect_usage_error("missing value for --dir" ${CLI} report --dir)
expect_usage_error("unknown command 'frobnicate'" ${CLI} frobnicate)

message(STATUS "cli smoke test passed")
