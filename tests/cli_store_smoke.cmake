# Smoke test of the binary ct-store CLI workflow: clean --store writes one
# container for a multi-tag workload; store ls/verify/get/put/compact
# operate on it; stay --store answers queries zero-copy off the mapped
# blob; and the text and binary pipelines stay interchangeable (a graph
# extracted from the store is byte-identical to the text file the same
# clean writes without --store). Invoked by ctest as
#   cmake -DCLI=<path-to-binary> -DWORK_DIR=<scratch> -P cli_store_smoke.cmake

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
  set(step_output "${out}" PARENT_SCOPE)
endfunction()

function(run_step_expect_failure)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "step unexpectedly succeeded: ${ARGV}\n${out}")
  endif()
endfunction()

set(STORE ${WORK_DIR}/tags.cts)

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

run_step(${CLI} generate --floors 2 --duration 60 --seed 5 --tags 4
         --out ${WORK_DIR})

# Clean into the binary store; no per-tag text graphs appear.
run_step(${CLI} clean --dir ${WORK_DIR} --seed 5 --store ${STORE})
if(NOT EXISTS ${STORE})
  message(FATAL_ERROR "clean --store did not write ${STORE}")
endif()
if(EXISTS ${WORK_DIR}/graph_0.ctg)
  message(FATAL_ERROR "clean --store also wrote text graphs")
endif()

# ls shows all four tags with provenance digests; verify deep-checks them.
run_step(${CLI} store ls --store ${STORE})
foreach(tag 0 1 2 3)
  if(NOT step_output MATCHES "tag ${tag}")
    message(FATAL_ERROR "store ls is missing tag ${tag}:\n${step_output}")
  endif()
endforeach()
if(NOT step_output MATCHES "generation 1, 4 blobs")
  message(FATAL_ERROR "store ls summary is wrong:\n${step_output}")
endif()
run_step(${CLI} store verify --store ${STORE})
if(NOT step_output MATCHES "4 blobs, 0 explain summaries verified ok")
  message(FATAL_ERROR "store verify summary is wrong:\n${step_output}")
endif()

# Text interop: a graph extracted from the store must be byte-identical to
# what the same clean writes as text without --store.
file(MAKE_DIRECTORY ${WORK_DIR}/text)
foreach(artifact building.map readings.csv)
  file(COPY ${WORK_DIR}/${artifact} DESTINATION ${WORK_DIR}/text)
endforeach()
run_step(${CLI} clean --dir ${WORK_DIR}/text --seed 5)
run_step(${CLI} store get --store ${STORE} --tag 2 --out ${WORK_DIR}/tag2.ctg)
file(READ ${WORK_DIR}/tag2.ctg store_graph)
file(READ ${WORK_DIR}/text/graph_2.ctg text_graph)
if(NOT store_graph STREQUAL text_graph)
  message(FATAL_ERROR "store get output differs from the text pipeline")
endif()

# put round trip: re-import the text graph under a new tag, read it back.
run_step(${CLI} store put --store ${STORE} --tag 100
         --in ${WORK_DIR}/tag2.ctg)
run_step(${CLI} store get --store ${STORE} --tag 100
         --out ${WORK_DIR}/tag100.ctg)
file(READ ${WORK_DIR}/tag100.ctg reimported)
if(NOT reimported STREQUAL store_graph)
  message(FATAL_ERROR "store put/get round trip changed the graph")
endif()

# Compaction keeps every live blob loadable and verifiable.
run_step(${CLI} store compact --store ${STORE})
run_step(${CLI} store verify --store ${STORE})
if(NOT step_output MATCHES "5 blobs, 0 explain summaries verified ok")
  message(FATAL_ERROR "store verify after compact is wrong:\n${step_output}")
endif()
run_step(${CLI} store get --store ${STORE} --tag 100
         --out ${WORK_DIR}/tag100_compacted.ctg)
file(READ ${WORK_DIR}/tag100_compacted.ctg after_compact)
if(NOT after_compact STREQUAL store_graph)
  message(FATAL_ERROR "compaction changed a stored graph")
endif()

# Zero-copy query path straight off the mapped container.
run_step(${CLI} stay --dir ${WORK_DIR} --store ${STORE} --tag 0 --time 5)
if(NOT step_output MATCHES "P\\(location at t=5\\)")
  message(FATAL_ERROR "stay --store printed no distribution:\n${step_output}")
endif()

# Diagnostics: a missing tag and a non-store file must fail cleanly.
run_step_expect_failure(${CLI} store get --store ${STORE} --tag 999
                        --out ${WORK_DIR}/nope.ctg)
file(WRITE ${WORK_DIR}/not_a_store.cts "this is not a ct-store container")
run_step_expect_failure(${CLI} store verify
                        --store ${WORK_DIR}/not_a_store.cts)

# 64-bit tag ids: a feed whose tag 3 is renamed 5000000000 cleans into a
# store, and every --tag reaches it (the CLI once parsed --tag as a 32-bit
# int, so no command could address a tag >= 2^31).
set(WIDE ${WORK_DIR}/wide)
file(MAKE_DIRECTORY ${WIDE}/text)
file(COPY ${WORK_DIR}/building.map DESTINATION ${WIDE})
file(COPY ${WORK_DIR}/building.map DESTINATION ${WIDE}/text)
file(READ ${WORK_DIR}/readings.csv feed)
string(REGEX REPLACE "\n3," "\n5000000000," feed "${feed}")
file(WRITE ${WIDE}/readings.csv "${feed}")
run_step(${CLI} clean --dir ${WIDE} --seed 5 --store ${WIDE}/tags.cts)
run_step(${CLI} store ls --store ${WIDE}/tags.cts)
if(NOT step_output MATCHES "tag 5000000000 ")
  message(FATAL_ERROR "store ls is missing tag 5000000000:\n${step_output}")
endif()
run_step(${CLI} store get --store ${WIDE}/tags.cts --tag 5000000000
         --out ${WIDE}/text/graph.ctg)
if(NOT step_output MATCHES "^tag 5000000000 -> ")
  message(FATAL_ERROR "store get printed the wrong tag:\n${step_output}")
endif()

# One graph source: every query command answers the same from the mapped
# blob (--store/--tag) as from the text graph extracted from it.
foreach(query "stay;--time;5" "pattern;--pattern;? F0.Corridor ?"
        "sample;--count;3;--seed;7" "report;--audit")
  run_step(${CLI} ${query} --dir ${WIDE}/text)
  set(text_output "${step_output}")
  run_step(${CLI} ${query} --dir ${WIDE} --store ${WIDE}/tags.cts
           --tag 5000000000)
  if(NOT step_output STREQUAL text_output)
    message(FATAL_ERROR "${query} --store differs from the text graph:\n"
            "${step_output}\nvs\n${text_output}")
  endif()
  if(step_output STREQUAL "")
    message(FATAL_ERROR "${query} printed nothing")
  endif()
endforeach()

message(STATUS "cli store smoke test passed")
