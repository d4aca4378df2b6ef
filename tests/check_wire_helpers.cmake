# Fails when any file under SRC_DIR other than util/wire.{h,cc} names a
# Put*/Get* byte helper (u8/u16/u32/u64/blob/string/f64 and their
# little-endian variants): every codec reads and writes through
# util::WireReader / util::WireWriter, and a private helper set would
# quietly split the wire format again.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/check_wire_helpers.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT SRC_DIR)
  message(FATAL_ERROR "SRC_DIR is not set")
endif()

file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cc")
set(pattern
    "(Put|Get)[A-Za-z0-9_]*(U8|U16|U32|U64|Le16|Le32|Le64|Blob|String|F64)[A-Za-z0-9_]*[ \t]*\\(")
set(report "")
foreach(source IN LISTS sources)
  file(RELATIVE_PATH rel "${SRC_DIR}" "${source}")
  if(rel MATCHES "^util/wire\\.(h|cc)$")
    continue()
  endif()
  # Lines are matched whole (file(STRINGS) would split them on ';').
  file(READ "${source}" text)
  string(REGEX MATCHALL "[^\n]*${pattern}[^\n]*" hits "${text}")
  if(hits)
    string(APPEND report "\n  src/${rel}: ${hits}")
  endif()
endforeach()

list(LENGTH sources scanned)
if(report)
  message(FATAL_ERROR
          "byte helpers outside util/wire.h (use util::WireWriter / "
          "util::WireReader):${report}")
endif()
message(STATUS "no private byte helpers in ${scanned} src/ files")
