#!/bin/sh
# Smoke run of the installed rationale-lab console script, in the current
# directory: gen and verify of every dataset kind, the verify reports' balance
# of the welfare and simplified type-a and type-b sets, verify of a file with
# one bad cell, a short train whose model file must be format 4, an eval of a
# copy with a character outside base64 in its parameters, two more trains at
# another learning rate that must match each other and not the first, an
# eval with a curve and a condition table (its keys, and row counts that sum
# to the cases), then a welfare plan run at parallelism 2 and replayed at
# parallelism 1 to the same report bytes, also with two BLAS threads, and a
# tort plan with seed-independent test sets (built once per plan and shared by
# its repetitions) run and replayed the same way. The installed distribution's
# version must be the package's.
set -eu

python -c 'import importlib.metadata, rationale_lab
installed = importlib.metadata.version("rationale-lab")
assert installed == rationale_lab.__version__, (installed, rationale_lab.__version__)'

python -c 'from rationale_lab.generation import KINDS
for (domain, kind), entry in KINDS.items():
    print(domain, kind, "--size 200" if entry.sized else "")' > kinds.txt
while read -r domain kind size; do
  rationale-lab gen --domain "$domain" --kind "$kind" $size --out "$domain-$kind.csv"
  rationale-lab verify --in "$domain-$kind.csv" --domain "$domain" > "$domain-$kind.json"
done < kinds.txt
# the balanced sets at size 200: half positive, every type-b negative fails
# exactly one condition and every type-a negative at least one
python -c 'import json
for domain in ("welfare", "simplified"):
    b, a = (json.load(open(f"{domain}-{kind}.json")) for kind in ("type-b", "type-a"))
    assert b["failed_condition_histogram"] == {"1": 100}, (domain, b)
    assert b["positive_fraction"] == 0.5, (domain, b)
    assert "0" not in a["failed_condition_histogram"], (domain, a)'

# one corrupted cell: verify exits 3, naming the file and the cell
sed '2s/^[01]/x/' tort-unique.csv > bad.csv
status=0
rationale-lab verify --in bad.csv --domain tort 2> bad.err || status=$?
test "$status" -eq 3
head -n 1 bad.err | grep -q '^error: bad\.csv: cell '

rationale-lab train --in welfare-type-b.csv --domain welfare --hidden 12 --iterations 40 \
  --seed 1 --out model.json
# format 4: the parameters are one base64 buffer, and the training section
# holds the four TrainConfig fields, no Adam constants
python -c 'import json
doc = json.load(open("model.json"))
assert doc["format_version"] == 4, doc["format_version"]
keys = sorted(doc)
assert keys == ["format", "format_version", "network", "params", "schema_id", "training"], keys
keys = sorted(doc["training"])
assert keys == ["batch_size", "iterations", "learning_rate", "shuffle_seed"], keys
doc["params"] = doc["params"][:8] + "#" + doc["params"][9:]
json.dump(doc, open("bad-model.json", "w"))'
# one parameter character outside the base64 alphabet: eval exits 3, naming the file
status=0
rationale-lab eval --model bad-model.json --in welfare-type-b.csv 2> bad-model.err || status=$?
test "$status" -eq 3
head -n 1 bad-model.err | grep -q '^error: bad-model\.json: '
# the same set twice at another rate: the two files match each other, and
# their trained weights differ from model.json's (the files would differ on
# the recorded rate alone), so the rate reaches the step
for run in 1 2; do
  rationale-lab train --in welfare-type-b.csv --domain welfare --hidden 12 --iterations 40 \
    --seed 1 --learning-rate 0.003 --out "model-lr-$run.json"
done
cmp model-lr-1.json model-lr-2.json
python -c 'import json
default, other = (json.load(open(f)) for f in ("model.json", "model-lr-1.json"))
assert other["training"]["learning_rate"] == 0.003, other["training"]
assert default["params"] != other["params"], "--learning-rate 0.003 trained the default weights"'
rationale-lab eval --model model.json --in welfare-age-gender.csv --curve Age:Gender \
  --curve-out curve.tsv --condition-table C1 > eval.json
test -s curve.tsv
# the table's two rows, each with its count, mean output and positive rate, split the cases
python -c 'import json
doc = json.load(open("eval.json"))
table = doc["condition_table"]
assert sorted(table) == ["condition", "false", "true"], sorted(table)
for side in ("false", "true"):
    assert sorted(table[side]) == ["count", "mean_output", "positive_rate"], table[side]
assert table["false"]["count"] + table["true"]["count"] == doc["cases"], doc'

# 130 training cases, so that each epoch ends on a short batch
echo '{"domain": "welfare", "train": [{"kind": "type-b", "size": 130}], "test": [{"kind": "type-b", "size": 130}, {"kind": "age-gender"}], "architectures": [[12]], "repetitions": 2, "iterations": 60}' > plan.json
rationale-lab experiment --plan plan.json --out-dir run --parallelism 2
rationale-lab report --manifest run/manifest.json --out-dir replayed --parallelism 1
cmp run/summary.json replayed/summary.json
cmp run/accuracy_matrix.csv replayed/accuracy_matrix.csv
diff -r run/curves replayed/curves
# importing the package sets one BLAS thread; a user's own setting must not change the bytes
OPENBLAS_NUM_THREADS=2 rationale-lab report --manifest run/manifest.json --out-dir replayed-blas2 \
  --parallelism 1
cmp run/summary.json replayed-blas2/summary.json
cmp run/accuracy_matrix.csv replayed-blas2/accuracy_matrix.csv

# the enumerated and dedicated tort sets are built once per plan and handed to the
# workers; the repetitions must read them as the serial replay does
echo '{"domain": "tort", "train": [{"kind": "regular", "size": 200}], "test": [{"kind": "unique"}, {"kind": "unlawfulness"}], "architectures": [[12]], "repetitions": 2, "iterations": 60}' > tort-plan.json
rationale-lab experiment --plan tort-plan.json --out-dir tort-run --parallelism 2
rationale-lab report --manifest tort-run/manifest.json --out-dir tort-replayed --parallelism 1
cmp tort-run/summary.json tort-replayed/summary.json
