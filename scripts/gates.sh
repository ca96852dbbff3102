#!/bin/sh
# Gate runner: runs the rows of a gate manifest in order and stops at the
# first failing row.
#
#   sh scripts/gates.sh MANIFEST
#
# Run from the repository root. A row is one line of six fields separated
# by '@', a character no command contains:
#
#   id@mode@expect@stderr@description@command
#
#   id           names the row; its stdout and stderr are saved to
#                target/gates/<id>.out and target/gates/<id>.err
#   mode         pass: the command must exit 0 (the row is a gate);
#                fail:<gate>: a mutant, the command must exit non-zero,
#                and <gate> is the earlier gate it proves
#   expect       what stdout must equal byte for byte: -, nothing checked;
#                =<id>, the saved stdout of an earlier row; otherwise the
#                path of a committed golden
#   stderr       -, or patterns separated by ';' that stderr must match
#                (grep basic regular expressions)
#   description  one line saying what is wrong when the row fails
#   command      run by sh -c, with stdin from /dev/null
#
# Lines that are blank or start with '#' are comments. A failing row is
# reported on stderr with its id, description, command and the tails of
# its output; a golden mismatch also shows the command that regenerates
# the golden. The last line counts the rows run, the mutants caught, and the
# gates that no mutant names.
set -u

manifest=${1:?usage: sh scripts/gates.sh MANIFEST}
[ -r "$manifest" ] || { echo "gates: cannot read $manifest" >&2; exit 2; }
dir=target/gates
mkdir -p "$dir"
rows=0 mutants=0 ids= gates= named= regen=

fail() {
    {
        echo "FAIL: $id: $desc"
        echo "  why:     $1"
        echo "  command: $cmd"
        for stream in out err; do
            echo "  last lines of $dir/$id.$stream:"
            tail -n 20 "$dir/$id.$stream" 2>/dev/null | sed 's/^/    /'
        done
        [ -z "$regen" ] || printf '  if the change is intended, regenerate the golden:\n    %s\n' "$regen"
    } >&2
    exit 1
}

while IFS=@ read -r id mode expect errpat desc cmd; do
    case $id in '' | '#'*) continue ;; esac
    echo "==> $id"
    case " $ids " in *" $id "*) fail "the row id is used twice" ;; esac
    case $mode in
    pass) ;;
    fail:*) case " $gates " in *" ${mode#fail:} "*) ;;
            *) fail "a mutant must name an earlier pass row, not '${mode#fail:}'" ;; esac ;;
    *) fail "the mode must be pass or fail:<gate>, not '$mode'" ;;
    esac
    want=$expect
    case $expect in
    =*) want=$dir/${expect#=}.out
        case " $ids " in *" ${expect#=} "*) ;;
        *) fail "'$expect' names no earlier row" ;; esac ;;
    esac
    ids="$ids $id"
    rows=$((rows + 1))

    sh -c "$cmd" < /dev/null > "$dir/$id.out" 2> "$dir/$id.err"
    status=$?
    if [ "$mode" = pass ]; then
        [ "$status" = 0 ] || fail "exited $status"
    else
        [ "$status" != 0 ] || fail "exited 0, so gate ${mode#fail:} no longer catches this mutant"
    fi
    if [ "$expect" != - ] && ! cmp "$want" "$dir/$id.out" >&2; then
        case $expect in =*) ;; *) regen="$cmd > $expect" ;; esac
        fail "stdout differs from $want"
    fi
    [ "$errpat" = - ] || while [ -n "$errpat" ]; do
        pat=${errpat%%;*}
        errpat=${errpat#"$pat"}
        errpat=${errpat#;}
        grep -q -e "$pat" "$dir/$id.err" || fail "stderr does not match '$pat'"
    done
    case $mode in
    pass) gates="$gates $id" ;;
    *) named="$named ${mode#fail:}" mutants=$((mutants + 1)) ;;
    esac
done < "$manifest"

unnamed=0
for gate in $gates; do
    case " $named " in *" $gate "*) ;; *) unnamed=$((unnamed + 1)) ;; esac
done
echo "gates: $rows rows run, $mutants mutants caught, $unnamed gates no mutant names"
