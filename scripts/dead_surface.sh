#!/usr/bin/env bash
# Dead-surface gate: which functions that the src/ libraries define out
# of line does no product binary link? Fails when that set and the
# allowlist (scripts/dead_surface.allow) disagree.
#
#   scripts/dead_surface.sh          # no arguments, no environment knobs
#
# The measurement:
#   - configure build-dead-surface/ at -O0 -ffunction-sections and link
#     with --gc-sections, so the linker keeps only the functions some
#     path from main() reaches;
#   - build the product binaries: every examples/*.cpp and bench/*.cpp
#     executable and gb_daemond, plus gbbench's driver from its own
#     package (gbbench/CMakeLists.txt) under the same flags;
#   - the universe is every global text symbol ('T') that
#     `nm --defined-only` lists for the src/ static libraries;
#   - a function is reached when some product binary still defines it
#     after the link. The rest are unreached, compared demangled.
#
# Only out-of-line functions are seen: inline functions and templates
# defined in headers are weak symbols, not 'T' symbols of the libraries,
# so a dead one of those passes unnoticed.
#
# Each allowlist line is one demangled name, then "# reason". The gate
# fails on an unreached name the allowlist does not hold (new dead
# surface: give it a product caller, delete it, or list it with a
# reason), and on a listed name that is reached or no longer defined (a
# stale line: delete it). Lines starting with '#' are comments. The
# name lists of the last run stay in build-dead-surface/names/. A cold
# build takes a few minutes on 4 cores; later runs are incremental.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C  # one collation for sort and comm
if [[ $# -ne 0 ]]; then
  echo "usage: scripts/dead_surface.sh (no arguments)" >&2
  exit 2
fi

BUILD_DIR=build-dead-surface
ALLOW=scripts/dead_surface.allow
JOBS="$(nproc 2>/dev/null || echo 2)"
# A build type with no flags of its own, so -O0 is the only -O level.
FLAGS=(-DCMAKE_BUILD_TYPE=DeadSurface
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

targets=(gb_daemond)
binaries=("${BUILD_DIR}/tools/gb_daemond" "${BUILD_DIR}/gbbench/gbbench")
for src in examples/*.cpp bench/*.cpp; do
  name="$(basename "${src}" .cpp)"
  targets+=("${name}")
  binaries+=("${BUILD_DIR}/$(dirname "${src}")/${name}")
done

echo "== dead surface: ${#binaries[@]} product binaries -> ${BUILD_DIR}"
cmake -B "${BUILD_DIR}" -S . "${FLAGS[@]}" >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${targets[@]}" >/dev/null
cmake -B "${BUILD_DIR}/gbbench" -S gbbench "${FLAGS[@]}" >/dev/null
cmake --build "${BUILD_DIR}/gbbench" -j "${JOBS}" --target gbbench >/dev/null

names="${BUILD_DIR}/names"
mkdir -p "${names}"
nm --defined-only "${BUILD_DIR}"/src/*/*.a 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u >"${names}/universe"
for b in "${binaries[@]}"; do
  nm --defined-only "${b}" | awk '{ print $3 }'
done | sort -u >"${names}/reached"
c++filt <"${names}/universe" | sort -u >"${names}/defined"
comm -23 "${names}/universe" "${names}/reached" | c++filt | sort -u \
  >"${names}/unreached"

status=0
entries="$(sed -E '/^(#|$)/d' "${ALLOW}")"
unexplained="$(grep -v '#.*[^[:space:]]' <<<"${entries}" || true)"
if [[ -n "${unexplained}" ]]; then
  echo "dead surface: allowlist lines without a '# reason':" >&2
  echo "${unexplained}" >&2
  status=1
fi
sed -E -e 's/[[:space:]]*#.*$//' -e '/^$/d' <<<"${entries}" | sort -u \
  >"${names}/allowed"

echo "   $(wc -l <"${names}/universe") functions defined," \
     "$(wc -l <"${names}/unreached") names unreached," \
     "$(wc -l <"${names}/allowed") allowlisted"
while IFS= read -r name; do
  echo "dead surface: unreached, not in ${ALLOW}: ${name}" >&2
  status=1
done < <(comm -23 "${names}/unreached" "${names}/allowed")
while IFS= read -r name; do
  if grep -qxF -- "${name}" "${names}/defined"; then
    why="now reached"
  else
    why="no longer defined"
  fi
  echo "dead surface: stale line in ${ALLOW} (${why}): ${name}" >&2
  status=1
done < <(comm -13 "${names}/unreached" "${names}/allowed")
if [[ "${status}" -eq 0 ]]; then
  echo "   dead surface: every unreached name is allowlisted, no stale line"
fi
exit "${status}"
