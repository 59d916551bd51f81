# End-to-end guarantees of the conflict-driven search (--learn):
#
#  1. --learn off reproduces the pre-learning chronological search
#     byte-for-byte: the sweep's CSV must equal the committed golden
#     (tests/golden_catalog_learn_off.csv).
#  2. Learning is deterministic: the default (--learn on) sweep emits the
#     same bytes whatever the worker count or fault sharding, and (full
#     scope) those bytes hash to the committed digest of
#     `gdf_atpg --all --csv --no-seconds`
#     (tests/golden_catalog_default.sha256).
#  3. Learning helps, never loses faults: per circuit the fault total is
#     unchanged against the --learn off rows, and across the full
#     catalog the aborted sum does not grow. (Activity-driven decision
#     ordering and restarts re-shuffle *which* faults exhaust the
#     backtrack budget, so per-circuit counts may move in both
#     directions; the totals are the invariants. The aborted-sum gate
#     only holds at catalog scale — the heuristics are tuned for the
#     abort-heavy big circuits and may cost a few aborts on a small
#     easy subset — so the small scope checks fault totals only.) That
#     no fault flips between Tested and Untestable is checked per fault
#     by the test_oracle suite, not here.
#
# Registered by tests/CMakeLists.txt as two ctests:
#   * cli_learning_determinism       — SCOPE=full: the whole catalog at
#     the paper configuration (the ISSUE acceptance sweep).
#   * cli_learning_determinism_small — SCOPE=small: three cheap circuits,
#     fast enough for the ThreadSanitizer CI job (which is what exercises
#     the clause machinery under -fsanitize=thread).
#
# Usage: cmake -DGDF_ATPG=<path> -DGOLDEN=<csv> -DSCOPE=<full|small>
#        [-DDEFAULT_DIGEST=<sha256 file>] -P check_learning_determinism.cmake
#
# DEFAULT_DIGEST is required by the full scope. To re-pin it after an
# intended change of the default rows:
#   gdf_atpg --all --csv --no-seconds | sha256sum | cut -d' ' -f1

if(SCOPE STREQUAL "small")
  set(circuits --circuit s27 --circuit s298 --circuit c17)
else()
  set(circuits --all)
endif()
set(base_args ${circuits} --csv --no-seconds)

function(run_sweep out_var)
  execute_process(
    COMMAND ${GDF_ATPG} ${base_args} ${ARGN}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gdf_atpg ${base_args} ${ARGN} failed (rc=${rc})")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# --- 1. --learn off against the committed golden ---------------------------
run_sweep(off_out --learn off)
file(READ ${GOLDEN} golden_all)
if(SCOPE STREQUAL "small")
  # The golden file covers the whole catalog; keep its header plus the
  # rows of the circuits this scope sweeps.
  string(REPLACE "\n" ";" golden_lines "${golden_all}")
  set(golden "circuit,tested,untestable,aborted,patterns\n")
  foreach(line IN LISTS golden_lines)
    if(line MATCHES "^(s27|s298|c17),")
      string(APPEND golden "${line}\n")
    endif()
  endforeach()
else()
  set(golden "${golden_all}")
endif()
if(NOT off_out STREQUAL golden)
  message(FATAL_ERROR "--learn off no longer matches the golden catalog:\n"
                      "=== --learn off ===\n${off_out}\n"
                      "=== golden ===\n${golden}")
endif()

# --- 2. default learning is worker/shard independent -----------------------
run_sweep(on_j1 --jobs 1)
run_sweep(on_j3 --jobs 3)
if(NOT on_j1 STREQUAL on_j3)
  message(FATAL_ERROR "--learn rows depend on --jobs:\n"
                      "=== jobs 1 ===\n${on_j1}\n=== jobs 3 ===\n${on_j3}")
endif()
run_sweep(on_shard --jobs 2 --shard-faults 2)
if(NOT on_j1 STREQUAL on_shard)
  message(FATAL_ERROR "--learn rows depend on --shard-faults:\n"
                      "=== sequential ===\n${on_j1}\n"
                      "=== sharded ===\n${on_shard}")
endif()
if(NOT SCOPE STREQUAL "small")
  file(READ ${DEFAULT_DIGEST} pinned_digest)
  string(STRIP "${pinned_digest}" pinned_digest)
  string(SHA256 on_digest "${on_j1}")
  if(NOT on_digest STREQUAL pinned_digest)
    message(FATAL_ERROR "the default catalog rows no longer match the "
                        "committed digest ${DEFAULT_DIGEST}:\n"
                        "  expected ${pinned_digest}\n"
                        "  got      ${on_digest}\n"
                        "=== default rows ===\n${on_j1}")
  endif()
endif()

# --- 3. learning helps, never loses faults ----------------------------------
string(REPLACE "\n" ";" off_lines "${off_out}")
string(REPLACE "\n" ";" on_lines "${on_j1}")
list(LENGTH off_lines n_off)
list(LENGTH on_lines n_on)
if(NOT n_off EQUAL n_on)
  message(FATAL_ERROR "row counts differ between --learn off and on")
endif()
math(EXPR last "${n_off} - 1")
set(off_aborted_sum 0)
set(on_aborted_sum 0)
foreach(i RANGE 1 ${last})
  list(GET off_lines ${i} off_row)
  list(GET on_lines ${i} on_row)
  if(off_row STREQUAL "")
    continue()
  endif()
  string(REPLACE "," ";" off_cells "${off_row}")
  string(REPLACE "," ";" on_cells "${on_row}")
  list(GET off_cells 0 off_name)
  list(GET on_cells 0 on_name)
  if(NOT off_name STREQUAL on_name)
    message(FATAL_ERROR "circuit order differs: ${off_name} vs ${on_name}")
  endif()
  list(GET off_cells 1 off_tested)
  list(GET off_cells 2 off_untestable)
  list(GET off_cells 3 off_aborted)
  list(GET on_cells 1 on_tested)
  list(GET on_cells 2 on_untestable)
  list(GET on_cells 3 on_aborted)
  math(EXPR off_total "${off_tested} + ${off_untestable} + ${off_aborted}")
  math(EXPR on_total "${on_tested} + ${on_untestable} + ${on_aborted}")
  if(NOT off_total EQUAL on_total)
    message(FATAL_ERROR "${off_name}: fault total changed "
                        "(${off_total} -> ${on_total})")
  endif()
  math(EXPR off_aborted_sum "${off_aborted_sum} + ${off_aborted}")
  math(EXPR on_aborted_sum "${on_aborted_sum} + ${on_aborted}")
endforeach()
if(NOT SCOPE STREQUAL "small" AND on_aborted_sum GREATER off_aborted_sum)
  message(FATAL_ERROR "learning grew the catalog aborted total "
                      "(${off_aborted_sum} -> ${on_aborted_sum})")
endif()

message(STATUS "learning determinism holds: --learn off matches the "
               "golden, default rows are worker/shard independent (and "
               "match the pinned digest in the full scope), fault totals "
               "are stable; aborted sum ${off_aborted_sum} -> "
               "${on_aborted_sum}")
