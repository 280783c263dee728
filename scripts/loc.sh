#!/usr/bin/env bash
# Line counts per crate (every `Cargo.toml` under `crates/`, nested ones like
# `crates/shims/*` included, then the root crate), as a markdown table:
# `src/` lines above the first `#[cfg(test)]` of each file (non-test), `src/`
# lines from that marker down (in-file tests) and `tests/` lines. `--files`
# adds one row per `src/` file.
#
#   scripts/loc.sh [--files] [ROOT]      ROOT defaults to this checkout
#
# Run it on a second checkout of the parent commit to get the before column
# of a CHANGES "less code" table.
set -euo pipefail

files=0
if [[ "${1:-}" == "--files" ]]; then
  files=1
  shift
fi
cd "${1:-$(dirname "$0")/..}"

# Prints "<non-test> <in-file test>" for one source file.
split() {
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ && !cut { cut = NR }
       END { if (!cut) cut = NR + 1; print cut - 1, NR - cut + 1 }' "$1"
}

echo "| crate | src non-test | src tests | tests/ |"
echo "|---|---:|---:|---:|"
sum_non=0 sum_unit=0 sum_integ=0
for dir in $(find crates -name Cargo.toml -not -path '*/target/*' -printf '%h\n' | sort) .; do
  [[ -d "$dir/src" ]] || continue
  name=${dir#crates/}
  [[ "$dir" == "." ]] && name="(root)"
  non=0 unit=0 rows=""
  while IFS= read -r file; do
    read -r a b < <(split "$file")
    non=$((non + a)) unit=$((unit + b))
    rows+="| \`${file#./}\` | $a | $b | |"$'\n'
  done < <(find "$dir/src" -name '*.rs' | sort)
  integ=0
  if [[ -d "$dir/tests" ]]; then
    integ=$(find "$dir/tests" -name '*.rs' -exec cat {} + | wc -l)
  fi
  echo "| **$name** | $non | $unit | $integ |"
  [[ $files -eq 1 ]] && printf '%s' "$rows"
  sum_non=$((sum_non + non)) sum_unit=$((sum_unit + unit)) sum_integ=$((sum_integ + integ))
done
echo "| **total** | $sum_non | $sum_unit | $sum_integ |"
