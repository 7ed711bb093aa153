#!/usr/bin/env bash
# Assert that every CTest label declared in CMakeLists.txt matches at
# least one discovered test. A label with zero tests is how a CI filter
# silently stops running a whole suite (the PR-5 label-collapse bug
# shipped exactly that way): the ASan/TSan presets select by label, so
# a renamed or dropped label turns a sanitizer gate into a no-op.
#
# With --built, assert instead that every suite a test preset's label
# filter selects was built. The sanitizer jobs build only the suites
# they run; a mamps_add_test target left out of that build registers a
# single unlabelled <target>_NOT_BUILT placeholder, which the label
# filter drops, so none of its tests run and ctest still passes. This
# mode reads the preset's label filter and build directory from
# CMakePresets.json and fails when a target with a matching label has
# no discovered-tests file (<target>[1]_tests.cmake) in that directory.
#
# Usage: scripts/check_labels.sh [build-dir]   (default: build)
#        scripts/check_labels.sh --built <test-preset> [build-dir]
#                                    (default: the preset's binaryDir)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# Every mamps_add_test(<name> <source> "<l1>;<l2>") call, one
# "<name> <l1>;<l2>" line each.
declared_tests() {
  sed -n 's/^[[:space:]]*mamps_add_test(\([^ ]*\) [^ ]* "\{0,1\}\([^")]*\)"\{0,1\})/\1 \2/p' \
    "$repo_root/CMakeLists.txt"
}

if [[ "${1:-}" == "--built" ]]; then
  preset="${2:?usage: $0 --built <test-preset> [build-dir]}"
  # The preset's label filter, then its configure preset's binaryDir
  # (following `inherits`).
  mapfile -t preset_fields < <(python3 - "$repo_root/CMakePresets.json" "$preset" <<'EOF'
import json
import sys

presets = json.load(open(sys.argv[1]))
test = next(p for p in presets["testPresets"] if p["name"] == sys.argv[2])
configure = {p["name"]: p for p in presets["configurePresets"]}
name = test["configurePreset"]
while "binaryDir" not in configure[name]:
    parent = configure[name]["inherits"]
    name = parent if isinstance(parent, str) else parent[0]
print(test["filter"]["include"]["label"])
print(configure[name]["binaryDir"])
EOF
  )
  filter="${preset_fields[0]}"
  build_dir="${3:-${preset_fields[1]//\$\{sourceDir\}/$repo_root}}"
  if [[ ! -f "$build_dir/CTestTestfile.cmake" ]]; then
    echo "error: '$build_dir' is not a configured build directory" >&2
    exit 2
  fi
  status=0
  while read -r name labels; do
    target="${name}_test"
    selected=0
    for label in ${labels//;/ }; do
      if [[ "$label" =~ $filter ]]; then
        selected=1
      fi
    done
    if [[ $selected -eq 0 ]]; then
      continue
    fi
    if [[ -f "$build_dir/${target}[1]_tests.cmake" ]]; then
      echo "ok: $target ($labels) is built"
    else
      echo "FAIL: $target ($labels) matches the '$preset' label filter but is not built" \
           "(add it to the job's --target list)"
      status=1
    fi
  done < <(declared_tests)
  exit $status
fi

build_dir="${1:-$repo_root/build}"

if [[ ! -f "$build_dir/CTestTestfile.cmake" ]]; then
  echo "error: '$build_dir' is not a configured build directory" >&2
  exit 2
fi

# Every label mentioned in a mamps_add_test call, plus the labels
# attached through plain add_test registrations (example smoke tests,
# the lint gate) which the sed above cannot see.
extra_labels="examples smoke lint"
labels=$( { declared_tests | cut -d' ' -f2 | tr ';' '\n'; \
            printf '%s\n' $extra_labels; } | sort -u)

if [[ -z "$labels" ]]; then
  echo "error: no mamps_add_test labels found in CMakeLists.txt" >&2
  exit 2
fi

status=0
for label in $labels; do
  count=$(ctest --test-dir "$build_dir" -N -L "^${label}$" 2>/dev/null |
          sed -n 's/^Total Tests: \([0-9]*\)$/\1/p')
  if [[ -z "${count:-}" || "$count" -eq 0 ]]; then
    echo "FAIL: label '$label' matches no tests (a label filter using it runs nothing)"
    status=1
  else
    echo "ok: label '$label' matches $count test(s)"
  fi
done
exit $status
