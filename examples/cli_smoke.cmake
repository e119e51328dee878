# One run_experiment command line as a ctest: `cmake -DEXE=<binary>
# "-DARGS=<arguments>" "-DEXPECT=<regex>" [-DFAIL=1] -P cli_smoke.cmake`.
# Passes when stdout+stderr match EXPECT and the exit status is zero, or,
# with FAIL set, non-zero.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(output "${out}${err}")
if(FAIL AND status EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit from '${ARGS}':\n${output}")
elseif(NOT FAIL AND NOT status EQUAL 0)
  message(FATAL_ERROR "'${ARGS}' exited with ${status}:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output of '${ARGS}' does not match '${EXPECT}':\n${output}")
endif()
