#!/usr/bin/env bash
# Checks that the committed mutants are still killed. Each *.patch in this
# directory is a small deliberate bug with a header naming the tests that
# must fail under it, one package per line:
#
#   Kill: ./internal/interp TestLinkedMatchesLegacy TestLinkedFramePoolReuse
#
# The script copies the working tree to a temporary directory, and for
# each patch applies it with git apply, runs the named tests and reverts
# it. It fails when a patch no longer applies, when a named test does not
# fail (a mutant that does not build kills nothing), or when a header
# names a byte pin: a pin says that bytes moved, not what broke.
#
# Run it from anywhere in the repository, on every patch or on the named
# ones:
#
#   bash testdata/mutants/run.sh
#   bash testdata/mutants/run.sh call-args-reversed
set -euo pipefail

dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$dir/../.." && pwd)
pins='TestGridDigests|TestReportsPinned|TestSetupStatePinned|TestGoldenOutput'

if [ $# -gt 0 ]; then
	patches=()
	for name in "$@"; do patches+=("$dir/$name.patch"); done
else
	patches=("$dir"/*.patch)
fi

# The copy is a repository of its own, so git apply patches it even when
# the temporary directory lies inside another repository.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
tree="$tmp/tree"
mkdir "$tree"
tar -C "$root" --exclude=./.git -cf - . | tar -C "$tree" -xf -
git init -q "$tree"

failed=0
for patch in "${patches[@]}"; do
	name=$(basename "$patch" .patch)
	kills=$(sed -n 's/^Kill: //p' "$patch")
	if [ -z "$kills" ]; then
		echo "FAIL $name: no Kill: line in the header"
		failed=1
		continue
	fi
	if grep -qE "^Kill: .*\b($pins)\b" "$patch"; then
		echo "FAIL $name: a byte pin cannot kill a mutant"
		failed=1
		continue
	fi
	if ! (cd "$tree" && git apply "$patch"); then
		echo "FAIL $name: the patch no longer applies"
		failed=1
		continue
	fi
	while read -r pkg tests; do
		start=$SECONDS
		log="$tmp/$name.log"
		(cd "$tree" && go test -count=1 -timeout 90s -v -run "^(${tests// /|})\$" "$pkg") >"$log" 2>&1 || true
		for t in $tests; do
			if grep -q -- "^--- FAIL: $t " "$log"; then
				echo "ok   $name: $pkg $t fails ($((SECONDS - start)) s)"
			else
				echo "FAIL $name: $pkg $t does not fail"
				tail -n 20 "$log"
				failed=1
			fi
		done
	done <<<"$kills"
	(cd "$tree" && git apply -R "$patch")
done
exit $failed
