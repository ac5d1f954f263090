#!/usr/bin/env bash
# Checks of the installed squashfitts package: the console script and the
# packaged bundled CSV, run from an empty directory outside the checkout, so
# that nothing is imported from src/. Run it from that directory after
# `pip install .`; `squashfitts` and `python` must be the installed command
# and the interpreter it was installed into. Exits non-zero at the first
# check that fails.
set -e
squashfitts validate --input bundled
squashfitts --help > /dev/null
# stdout that cannot be flushed at exit is an environment failure:
# exit 2 with one error line, not Python's exit 120
code=0; squashfitts stats --input bundled > /dev/full 2> full.txt || code=$?
test "$code" -eq 2
test "$(wc -l < full.txt)" -eq 1
grep -q '^error:' full.txt
# so is a missing fd 1: exit 2 with one error line, no traceback
code=0; squashfitts stats --input bundled >&- 2> closed.txt || code=$?
test "$code" -eq 2
test "$(cat closed.txt)" = "error: not writable"
# help is output too: argparse would drop its failed write and exit 0
code=0; squashfitts --help >&- 2> help.txt || code=$?
test "$code" -eq 2
test "$(cat help.txt)" = "error: not writable"
# the records are built without dataclasses (about 30 ms of start-up)
python -c "import sys, squashfitts.cli; assert 'dataclasses' not in sys.modules"
# validate imports no analysis module, no pointing-task code and no
# json, and reads the packaged CSV through importlib.resources,
# imported on first read
python -c "import sys; from squashfitts import cli; assert cli.main(['validate', '--input', 'bundled']) == 0; assert not {'squashfitts.pipeline', 'squashfitts.variants', 'json'} & set(sys.modules)"
squashfitts report --input bundled --output report.json
# the report is written in chunks: to stdout and to a file, the same bytes
squashfitts report --input bundled > stdout.json 2> summary.txt
cmp stdout.json report.json
# the cross-checks read the packaged table, here from the installed package
grep -qxF 'cross-check derivations vs published table: 106/108 within 0.02 -> PASS excluding published errata' summary.txt
grep -qxF 'cross-check published trend line (MT = 0.456*ID + (-1.3)): reproduced by: exclude_drive/recomputed, exclude_drive/as_published' summary.txt
# a path that is not UTF-8 is named with \x escapes: the report is
# written whole, the same bytes to a file and to stdout, as UTF-8 JSON
bad="$(printf 'bad\xff.csv')"
squashfitts derive --input bundled --output "$bad"
squashfitts report --input "$bad" --output bad_report.json
squashfitts report --input "$bad" > bad_stdout.json 2> bad_summary.txt
cmp bad_stdout.json bad_report.json
python -c "import json; json.load(open('bad_report.json', encoding='utf-8'))"
squashfitts figures --input bundled --output figs
test "$(ls figs | wc -l)" -eq 10
# figures loads no report code: no pipeline, published or json
python -c "import sys; from squashfitts import cli; assert cli.main(['figures', '--input', 'bundled', '--output', 'figs_modules']) == 0; assert not {'squashfitts.pipeline', 'squashfitts.published', 'json'} & set(sys.modules)" > /dev/null
# a non-UTF-8 output directory is listed with \x escapes, so a
# strict UTF-8 stdout takes the list: exit 0, one line per file
PYTHONIOENCODING=utf-8 squashfitts figures --input bundled --output "$(printf 'out\xff')" > out_list.txt
test "$(wc -l < out_list.txt)" -eq 10
# figures fits its lines without run_analysis: the same bytes as
# the library's figure_series of a run_analysis
squashfitts figures --input bundled --exclude-shot drive --output figs_nodrive
python -c "import squashfitts as sf; s = sf.figure_series(sf.run_analysis(sf.bundled_dataset(), sf.AnalysisOptions({'Drive'})), 4); open('lib.svg', 'w', encoding='utf-8').write(sf.emit_svg(s)); open('lib.csv', 'w', encoding='utf-8').write(sf.emit_series_csv(s))"
cmp figs_nodrive/fig4_overall.svg lib.svg
cmp figs_nodrive/fig4_overall.csv lib.csv
# validate exits 0 only on data that report can analyse: a file
# without drops and boasts fails both, with exit 1
printf '%s\n' person,shot,trial,db_cm,t_s,dp_cm,mt_s \
  1,Drive,1,586,0.197,374,1.22 1,Drive,2,587,0.204,386,1.21 \
  1,Lob,1,686,0.3125,380,1.89 1,Lob,2,665,0.3625,402,1.63 > drives_lobs.csv
code=0; squashfitts validate --input drives_lobs.csv || code=$?; test "$code" -eq 1
code=0; squashfitts report --input drives_lobs.csv --output r.json || code=$?
test "$code" -eq 1
# validate checks the rule on its first block of 256 trials, and on
# all of them where that block breaks it: a shot-major file whose
# first block holds drives and drops only meets the rule, and the
# same file with every boast at one ID breaks it, with one error
# line, the same from validate, report and figures
for boast in 0 1; do python -c "import sys; S = ('Drive', 'Drop', 'Lob', 'Boast'); r = ['%d,%s,%d,%d,%.2f,%d,%.1f' % ((i % 150 // 50 + 1, S[i // 150], i % 50 + 1) + ((586, 0.19, 374) if sys.argv[1] == '1' and i >= 450 else (586 + i % 37, 0.19 + i % 11 / 100, 374 + i % 23)) + (1.2 + i % 7 / 10,)) for i in range(600)]; print('person,shot,trial,db_cm,t_s,dp_cm,mt_s', *r, sep='\n')" "$boast" > "major_$boast.csv"; done
for c in validate report figures; do
  code=0; squashfitts "$c" --input major_0.csv --output "major_0_$c" > /dev/null 2>&1 || code=$?
  test "$code" -eq 0
  code=0; squashfitts "$c" --input major_1.csv --output "major_1_$c" > /dev/null 2> "major_1_$c.txt" || code=$?
  test "$code" -eq 1
done
test "$(wc -l < major_1_report.txt)" -eq 1
grep -q '^error: all 150 trials of shot Boast have ID ' major_1_report.txt
cmp major_1_report.txt major_1_figures.txt
grep -qxF "  error: row 0, column 'shot': $(sed 's/^error: //' major_1_report.txt)" major_1_validate.txt
# a file without trials is rejected (exit 1), not analysed
printf '%s\n' person,shot,trial,db_cm,t_s,dp_cm,mt_s > header_only.csv
code=0; squashfitts derive --input header_only.csv || code=$?; test "$code" -eq 1
code=0; squashfitts stats --input header_only.csv || code=$?; test "$code" -eq 1
# validate names the same defect with the same one line
code=0; squashfitts validate --input header_only.csv 2> err.txt || code=$?
test "$code" -eq 1
test "$(cat err.txt)" = "error: header_only.csv: no trials"
# flag values take the CSV cells' number grammar, finite and > 0 (exit 2)
code=0; squashfitts report --input bundled --slowdown 1_0 || code=$?; test "$code" -eq 2
code=0; squashfitts report --input bundled --tolerance inf || code=$?; test "$code" -eq 2
# the grammar's edge, where whole-row conversion and the cell rules
# must agree: padded cells and +2 are valid, 1_0 and a full-width
# digit are not
printf '%s\n' person,shot,trial,db_cm,t_s,dp_cm,mt_s \
  '1,Drive,1, 586 , 0.197 , 374 , 1.22 ' 1,Drive,3,1_0,0.204,386,1.21 \
  '８,Lob,1,686,0.3125,380,1.89' 1,Lob,+2,665,0.3625,402,1.63 > grammar.csv
code=0; squashfitts validate --input grammar.csv > grammar.txt 2>&1 || code=$?
test "$code" -eq 1
grep -q '2 valid trial(s)' grammar.txt
grep -q '2 error(s)' grammar.txt
# rows are parsed in blocks of 256: a bad number in the second block
# and a first-block key again in the third are errors of their rows
python -c "S = ('Drive', 'Drop', 'Lob', 'Boast'); r = ['%d,%s,%d,586,0.197,374,1.22' % (i // 12 + 1, S[i % 4], i // 4 % 3 + 1) for i in range(600)]; r[298] = r[298].replace('0.197', 'x'); r[518] = r[0]; print('person,shot,trial,db_cm,t_s,dp_cm,mt_s', *r, sep='\n')" > blocks.csv
code=0; squashfitts validate --input blocks.csv > blocks.txt 2>&1 || code=$?
test "$code" -eq 1
grep -qxF 'blocks.csv: 598 valid trial(s)' blocks.txt
grep -qxF "  error: row 300, column 't_s': expected a number, got 'x'" blocks.txt
grep -qxF "  error: row 520, column 'trial': duplicate trial key (1, 'Drive', 1) first seen at row 2" blocks.txt
# records are derived, and report rows, circles and CSV rows filled,
# 256 at a time: a 600-row file crossing two block edges, with one
# point in two shots, gives the library's bytes, with no shot, one
# and two shots excluded (fig4's merge then skips two shots' runs)
python -c "S = ('Drive', 'Drop', 'Lob', 'Boast'); r = ['%d,%s,%d,%d,%.2f,%d,%.1f' % (i // 12 + 1, S[i % 4], i // 4 % 3 + 1, 586 + i % 37, 0.19 + i % 11 / 100, 374 + i % 23, 1.2 + i % 7 / 10) for i in range(600)]; r[301] = r[300].replace('Drive', 'Drop'); print('person,shot,trial,db_cm,t_s,dp_cm,mt_s', *r, sep='\n')" > repeated.csv
squashfitts figures --input repeated.csv --output rep_all
squashfitts figures --input repeated.csv --exclude-shot drive --output rep_nodrive
squashfitts figures --input repeated.csv --exclude-shot lob --exclude-shot boast --output rep_nolobboast
squashfitts report --input repeated.csv --output rep_report.json
python - <<'EOF'
import os
import squashfitts as sf
from squashfitts.plot import FIGURES
dataset, report = sf.parse_csv(open('repeated.csv').read(), {'source': 'repeated.csv'})
assert report.ok and len(dataset) == 600
open('lib_report.json', 'w', encoding='utf-8').write(sf.render_report_json(sf.run_analysis(dataset)))
for excluded, out in (((), 'lib_all'), (('Drive',), 'lib_nodrive'), (('Lob', 'Boast'), 'lib_nolobboast')):
    doc = sf.run_analysis(dataset, sf.AnalysisOptions(frozenset(excluded)))
    os.makedirs(out)
    for figure, (label, _) in FIGURES.items():
        series = sf.figure_series(doc, figure)
        open(f'{out}/{label}.svg', 'w', encoding='utf-8').write(sf.emit_svg(series))
        open(f'{out}/{label}.csv', 'w', encoding='utf-8').write(sf.emit_series_csv(series))
EOF
cmp rep_report.json lib_report.json
test "$(ls rep_all | wc -l)" -eq 10
test "$(ls rep_nolobboast | wc -l)" -eq 10
for f in $(ls lib_all); do
  cmp "rep_all/$f" "lib_all/$f"; cmp "rep_nodrive/$f" "lib_nodrive/$f"; cmp "rep_nolobboast/$f" "lib_nolobboast/$f"
done
# the pointing-task parser and fit work from the installed package
printf '%s\n' amplitude,width,mt_s 2,1,0.5 4,1,0.62 > pointing.csv
squashfitts fit --model fitts --input pointing.csv > fitts.txt
grep -q '^model: fitts ' fitts.txt
# pointing data has no ball times: --slowdown is a usage error (exit 2)
code=0; squashfitts fit --model fitts --slowdown 10 --input pointing.csv || code=$?
test "$code" -eq 2
# a refused pointing cell is one error line of its row (exit 1)
printf '%s\n' amplitude,width,mt_s 2,x,0.5 inf,1,0.6 > pointing_bad.csv
code=0; squashfitts fit --model fitts --input pointing_bad.csv 2> bad.txt || code=$?
test "$code" -eq 1
test "$(wc -l < bad.txt)" -eq 2
test "$(grep -c '^error: row ' bad.txt)" -eq 2
# a column whose values are all equal is constant to a fit, though
# its mean can miss their value by an ulp: exit 1
printf '%s\n' person,shot,trial,db_cm,t_s,dp_cm,mt_s 1,Drive,1,501,0.197,374,1.22 \
  1,Drive,2,501,0.197,374,1.31 1,Drive,3,501,0.197,374,1.40 > constant.csv
code=0; squashfitts fit --model squash --input constant.csv 2> constant.txt || code=$?
test "$code" -eq 1
grep -q 'all 3 predictor values equal' constant.txt
printf '%s\n' amplitude,width,mt_s 11,1,0.5 11,2,0.42 11,4,0.33 > constant_pointing.csv
code=0; squashfitts fit --model welford --input constant_pointing.csv 2> constant_pointing.txt || code=$?
test "$code" -eq 1
grep -q 'predictor x1 is constant' constant_pointing.txt
# a flag value takes the cells' grammar, padding included
squashfitts validate --input bundled --slowdown ' 10 '
