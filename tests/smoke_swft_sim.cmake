# CTest smoke script: run swft_sim end-to-end in CSV mode on a small faulty
# torus and check the exit code and output shape, then check that an
# out-of-range msg_length, rate, td, delta, nf, vcs, escape_vcs,
# buffer_depth, max_cycles, measured, warmup, hotspot_fraction or region, an
# integer its field cannot hold, and the removed engine=sparse-mt and
# sim_threads keys, are refused with exit code 2.
#
#   cmake -DSWFT_SIM=<path-to-binary> -P smoke_swft_sim.cmake
if(NOT SWFT_SIM)
  message(FATAL_ERROR "pass -DSWFT_SIM=<path to swft_sim>")
endif()

execute_process(
  COMMAND ${SWFT_SIM} --csv k=4 n=2 vcs=4 msg_length=8 rate=0.004
          routing=adaptive nf=2 warmup=50 measured=300 max_cycles=200000 seed=7
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "swft_sim exited with ${rc}\nstderr: ${err}")
endif()

string(REGEX REPLACE "\n$" "" out "${out}")
string(REPLACE "\n" ";" lines "${out}")
list(LENGTH lines nlines)
if(NOT nlines EQUAL 2)
  message(FATAL_ERROR "expected CSV header + 1 data row, got ${nlines} line(s):\n${out}")
endif()

list(GET lines 0 header)
list(GET lines 1 row)
if(NOT header MATCHES "^label,routing,radix,dims,vcs")
  message(FATAL_ERROR "unexpected CSV header: ${header}")
endif()
if(NOT header MATCHES ",deadlock$")
  message(FATAL_ERROR "CSV header missing trailing deadlock column: ${header}")
endif()

string(REGEX MATCHALL "," headerCommas "${header}")
string(REGEX MATCHALL "," rowCommas "${row}")
list(LENGTH headerCommas nHeader)
list(LENGTH rowCommas nRow)
if(NOT nHeader EQUAL nRow)
  message(FATAL_ERROR "row has ${nRow} commas but header has ${nHeader}:\n${out}")
endif()

# Exit code 0 already implies no deadlock; cross-check the CSV field agrees.
if(NOT row MATCHES ",0$")
  message(FATAL_ERROR "deadlock column should be 0 on a clean run: ${row}")
endif()

# Out-of-range message lengths are rejected up front with a non-zero exit
# and an error naming the key, instead of running a narrowed length.
foreach(bad 0 70000)
  execute_process(
    COMMAND ${SWFT_SIM} --csv k=4 n=2 msg_length=${bad}
    RESULT_VARIABLE badRc
    OUTPUT_VARIABLE badOut
    ERROR_VARIABLE badErr)
  if(badRc EQUAL 0)
    message(FATAL_ERROR "swft_sim accepted msg_length=${bad}:\n${badOut}")
  endif()
  if(NOT badErr MATCHES "msg_length")
    message(FATAL_ERROR "msg_length=${bad} error does not name the key: ${badErr}")
  endif()
endforeach()

# Values no run can honour are refused the same way: each exits non-zero
# with an error naming its key, instead of running and reporting "saturated".
foreach(bad rate=-1 rate=nan rate=2 td=-5 delta=-3 nf=63)
  string(REGEX REPLACE "=.*$" "" badKey "${bad}")
  execute_process(
    COMMAND ${SWFT_SIM} --csv k=8 n=2 ${bad}
    RESULT_VARIABLE badRc
    OUTPUT_VARIABLE badOut
    ERROR_VARIABLE badErr)
  if(badRc EQUAL 0)
    message(FATAL_ERROR "swft_sim accepted ${bad}:\n${badOut}")
  endif()
  if(NOT badErr MATCHES "${badKey}")
    message(FATAL_ERROR "${bad} error does not name the key: ${badErr}")
  endif()
endforeach()

# Router-shape and run-length values, integers their field cannot hold (they
# once wrapped: vcs=4294967300 ran as V=4, measured=-1 as 4294967295) and the
# keys of the removed sparse-mt engine are refused with the bad-arguments exit
# code (2), not the watchdog's (1), with an error naming the key. A `|`
# separates extra assignments a case needs; the key named is that of the last
# one.
foreach(bad vcs=0 vcs=17 buffer_depth=0 routing=adaptive|escape_vcs=3
            max_cycles=0 measured=0 engine=sparse-mt sim_threads=2
            vcs=4294967300 nf=4294967297 td=4294967298 measured=-1 warmup=-1
            max_cycles=-1 region=rect:4294967299x3 hotspot_fraction=1.5)
  string(REPLACE "|" ";" badArgs "${bad}")
  list(GET badArgs -1 badLast)
  string(REGEX REPLACE "=.*$" "" badKey "${badLast}")
  execute_process(
    COMMAND ${SWFT_SIM} --csv k=4 n=2 ${badArgs}
    RESULT_VARIABLE badRc
    OUTPUT_VARIABLE badOut
    ERROR_VARIABLE badErr)
  if(NOT badRc EQUAL 2)
    message(FATAL_ERROR "swft_sim exited ${badRc}, not 2, on ${bad}:\n${badOut}${badErr}")
  endif()
  if(NOT badErr MATCHES "${badKey}")
    message(FATAL_ERROR "${bad} error does not name the key: ${badErr}")
  endif()
endforeach()

message(STATUS "swft_sim smoke OK: ${row}")
