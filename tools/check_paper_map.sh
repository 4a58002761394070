#!/usr/bin/env bash
# Guards docs/PAPER_MAP.md against rot, in both directions:
#   1. Coverage: every `T_*` formula and every "Protocol x.y" / "Theorem x.y"
#      token cited in DESIGN.md must appear in docs/PAPER_MAP.md.
#   2. Anchors: every `path#symbol` anchor in docs/PAPER_MAP.md must name an
#      existing file that contains the symbol string verbatim, and an anchor
#      followed by a "(line N)" hint must have the symbol on line N.
#   3. Thresholds: every LINT:threshold(<area>.<name>) symbol annotated in
#      src/ must appear in docs/PAPER_MAP.md (the "Threshold symbols"
#      section) and in docs/THRESHOLDS.json.
# Run from the repo root (CI does); exits non-zero on the first class of
# failure found, printing every offender.
set -u
cd "$(dirname "$0")/.."

MAP=docs/PAPER_MAP.md
DESIGN=DESIGN.md
fail=0

if [[ ! -f "$MAP" || ! -f "$DESIGN" ]]; then
  echo "check_paper_map: missing $MAP or $DESIGN" >&2
  exit 2
fi

# --- 1. coverage: DESIGN.md citations must be mapped -----------------------
# \bT'?_[A-Z]+ deliberately requires a word boundary so TEST_P and the like
# do not register as timing formulas.
tokens=$(
  {
    grep -oE "\bT'?_[A-Z]+" "$DESIGN"
    grep -oE "\b(Protocol|Theorem|Corollary) [0-9]+\.[0-9]+" "$DESIGN"
  } | sort -u
)
while IFS= read -r token; do
  [[ -z "$token" ]] && continue
  if ! grep -qF "$token" "$MAP"; then
    echo "UNMAPPED: '$token' cited in $DESIGN but absent from $MAP"
    fail=1
  fi
done <<< "$tokens"

# --- 2. anchors: path#symbol pairs must resolve ----------------------------
anchors=$(grep -oE '`[^`#]+#[^`]+`' "$MAP" | sed 's/^`//; s/`$//' | sort -u)
count=0
while IFS= read -r anchor; do
  [[ -z "$anchor" ]] && continue
  path=${anchor%%#*}
  symbol=${anchor#*#}
  case "$path" in
    src/*|tools/*|tests/*|bench/*|docs/*|.github/*) ;;
    *) continue ;;  # prose like `path#symbol` itself, not an anchor
  esac
  count=$((count + 1))
  if [[ ! -f "$path" ]]; then
    echo "DANGLING: $MAP anchors '$path' which does not exist"
    fail=1
  elif ! grep -qF "$symbol" "$path"; then
    echo "STALE: '$symbol' not found in $path (anchor \`$anchor\`)"
    fail=1
  fi
done <<< "$anchors"

if [[ $count -lt 10 ]]; then
  echo "SUSPICIOUS: only $count anchors parsed from $MAP (expected dozens)"
  fail=1
fi

hints=$(grep -oE '`[^`#]+#[^`]+` \(line [0-9]+\)' "$MAP" | sort -u)
hintcount=0
while IFS= read -r hint; do
  [[ -z "$hint" ]] && continue
  anchor=${hint#\`}
  anchor=${anchor%%\`*}
  line=${hint##*(line }
  line=${line%)}
  path=${anchor%%#*}
  symbol=${anchor#*#}
  [[ -f "$path" ]] || continue  # already reported as DANGLING
  hintcount=$((hintcount + 1))
  if ! sed -n "${line}p" "$path" | grep -qF "$symbol"; then
    echo "STALE HINT: '$symbol' is not on line $line of $path" \
         "(anchor \`$anchor\`)"
    fail=1
  fi
done <<< "$hints"

# --- 3. threshold symbols: annotations must be mapped and tabled -----------
# The dotted <area>.<name> requirement skips the grammar placeholders in
# src/lint's doc comments (LINT:threshold(symbol)).
THRESHOLDS=docs/THRESHOLDS.json
symbols=$(grep -rhoE 'LINT:threshold\([a-z0-9_]+\.[a-z0-9_]+\)' src |
  sed 's/^LINT:threshold(//; s/)$//' | sort -u)
symcount=0
while IFS= read -r sym; do
  [[ -z "$sym" ]] && continue
  symcount=$((symcount + 1))
  if ! grep -qF "\`$sym\`" "$MAP"; then
    echo "UNMAPPED: threshold symbol '$sym' annotated in src/ but absent" \
         "from $MAP"
    fail=1
  fi
  if ! grep -qF "\"$sym\"" "$THRESHOLDS"; then
    echo "UNTABLED: threshold symbol '$sym' annotated in src/ but absent" \
         "from $THRESHOLDS"
    fail=1
  fi
done <<< "$symbols"
if [[ $symcount -lt 10 ]]; then
  echo "SUSPICIOUS: only $symcount threshold symbols found in src/" \
       "(expected dozens)"
  fail=1
fi

if [[ $fail -eq 0 ]]; then
  echo "check_paper_map: OK ($count anchors, $hintcount line hints," \
       "$symcount threshold symbols, all DESIGN.md citations mapped)"
fi
exit $fail
