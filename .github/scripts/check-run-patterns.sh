#!/usr/bin/env bash
# check-run-patterns.sh [workflow]: every `go test ... -run <pattern>`
# in the workflow (default .github/workflows/ci.yml) must select tests.
# Each pattern is split on `|`, and each alternative must select at
# least one test in the packages its own command names
# (`go test -list`). An alternative that matches nothing passes
# silently, so a renamed or deleted test would leave its step green
# while it tests nothing. `-run '^$'` (compile only) is skipped.
set -euo pipefail
wf=${1:-.github/workflows/ci.yml}
dead=0
while IFS= read -r line; do
	pat=$(sed -nE "s/.*-run[ =]'([^']*)'.*/\1/p" <<<"$line")
	if [ -z "$pat" ]; then
		pat=$(sed -nE "s/.*-run[ =]([^ ']+).*/\1/p" <<<"$line")
	fi
	if [ -z "$pat" ] || [ "$pat" = '^$' ]; then
		continue
	fi
	read -ra pkgs <<<"$(grep -oE '(^| )\./[^ ]*' <<<"$line" | tr '\n' ' ')"
	IFS='|' read -ra alts <<<"$pat"
	for alt in "${alts[@]}"; do
		listed=$(go test -list "$alt" "${pkgs[@]}" </dev/null)
		if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
			echo "no test matches -run alternative '$alt' (${pkgs[*]}) in: ${line#"${line%%[![:space:]]*}"}" >&2
			dead=1
		fi
	done
done < <(grep -E 'go test .*-run' "$wf")
exit $dead
