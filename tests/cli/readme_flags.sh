#!/bin/sh
# README drift gate for dfscluster's flag tables.
#
# Every `--flag` row in the tables of the README's "Online cluster
# lifecycle" section must be listed by `dfscluster --help`. Where the row's
# default cell is a number or a backticked word, --help must show that same
# default in brackets.
#
# Usage: readme_flags.sh <dfscluster binary> <README.md>
set -eu

TOOL=$1
README=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$TOOL" --help > "$WORK/help"
sed -n '/^### Online cluster lifecycle/,/^### Beyond/p' "$README" |
  grep -E '^ *\| `--[a-z-]+' > "$WORK/rows" || true
rows=$(wc -l < "$WORK/rows")
if [ "$rows" -lt 20 ]; then
  echo "only $rows dfscluster flag rows found in $README" >&2
  exit 1
fi

status=0
while IFS='|' read -r _ flag_cell default_cell _; do
  flag=$(echo "$flag_cell" | sed -E 's/^ *`(--[a-z-]+).*/\1/')
  default=$(echo "$default_cell" | sed -E 's/^ +//; s/ +$//')
  line=$(grep -E -- "^  $flag( |\$)" "$WORK/help" || true)
  if [ -z "$line" ]; then
    echo "README lists $flag but dfscluster --help does not" >&2
    status=1
    continue
  fi
  case $default in
    \`*\`) want=$(echo "$default" | tr -d '`') ;;
    *[!0-9.]* | '') continue ;;
    *) want=$default ;;
  esac
  if ! echo "$line" | grep -qF -- "[$want]"; then
    echo "README default of $flag is $want; --help says: $line" >&2
    status=1
  fi
done < "$WORK/rows"

[ "$status" -eq 0 ] && echo "README flag tables match dfscluster --help ($rows rows)"
exit "$status"
