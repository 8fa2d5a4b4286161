# Runs PROGRAM and byte-compares its stdout with the committed file GOLDEN.
# On a mismatch the output is written to ACTUAL and the test fails.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P check_golden_output.cmake
execute_process(COMMAND ${PROGRAM} OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
file(READ ${GOLDEN} golden)
if(NOT actual STREQUAL golden)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "output differs from ${GOLDEN}; "
                      "see `diff ${GOLDEN} ${ACTUAL}`")
endif()
