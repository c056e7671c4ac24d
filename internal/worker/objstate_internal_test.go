package worker

// White-box tests for the persisted recovery_state parser: the file is an
// advisory hint, so damage must degrade it (skipped lines, or the whole
// file falling back to the demote-all default) — never crash or invent
// state the site would then serve reads with.

import (
	"os"
	"path/filepath"
	"testing"

	"harbor/internal/expr"
	"harbor/internal/tuple"
)

func writeStateFile(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, objStateFile), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadObjStateFileTolerance(t *testing.T) {
	full := expr.FullKeyRange()
	cases := []struct {
		name    string
		content string
		want    map[int32][]segStatus
	}{
		{
			name:    "segment lines parse and sort by range lo",
			content: "1 500 " + "9223372036854775807" + " 5 42\n1 -9223372036854775808 500 3 7\n",
			want: map[int32][]segStatus{1: {
				{rng: expr.KeyRange{Lo: full.Lo, Hi: 500}, state: ObjHistoricalCopy, copiedThrough: 7},
				{rng: expr.KeyRange{Lo: 500, Hi: full.Hi}, state: ObjReady, copiedThrough: 42},
			}},
		},
		{
			name:    "3-field line is skipped",
			content: "3 4 99\n",
			want:    map[int32][]segStatus{},
		},
		{
			name:    "truncated and over-long lines skipped",
			content: "1 5\n1 0 100 5\n1 0 100 5 7 9 11\n2 0 100 5 10\n",
			want: map[int32][]segStatus{2: {
				{rng: expr.KeyRange{Lo: 0, Hi: 100}, state: ObjReady, copiedThrough: 10},
			}},
		},
		{
			name:    "non-numeric fields skipped",
			content: "one 0 100 5 10\n1 zero 100 5 10\n1 0 cent 5 10\n1 0 100 cinq 10\n1 0 100 5 dix\n1 0 100 2 3\n",
			want: map[int32][]segStatus{1: {
				{rng: expr.KeyRange{Lo: 0, Hi: 100}, state: ObjScrubbing, copiedThrough: 3},
			}},
		},
		{
			name:    "unknown state codes skipped",
			content: "1 0 100 0 0\n1 0 100 6 0\n1 0 100 99 0\n1 0 100 5 0\n",
			want: map[int32][]segStatus{1: {
				{rng: expr.KeyRange{Lo: 0, Hi: 100}, state: ObjReady, copiedThrough: 0},
			}},
		},
		{
			name:    "empty or inverted segment ranges skipped",
			content: "1 100 100 5 0\n1 200 100 5 0\n1 100 200 5 8\n",
			want: map[int32][]segStatus{1: {
				{rng: expr.KeyRange{Lo: 100, Hi: 200}, state: ObjReady, copiedThrough: 8},
			}},
		},
		{
			name:    "garbage file degrades to the empty map (demote-all default)",
			content: "\x00\x01\x02 total garbage\nnot even close\n",
			want:    map[int32][]segStatus{},
		},
		{
			name:    "empty file is the empty map",
			content: "",
			want:    map[int32][]segStatus{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeStateFile(t, dir, tc.content)
			s := &Site{Cfg: Config{Dir: dir}}
			got := s.readObjStateFile()
			if len(got) != len(tc.want) {
				t.Fatalf("parsed %d tables, want %d: %+v", len(got), len(tc.want), got)
			}
			for id, want := range tc.want {
				segs := got[id].segs
				if len(segs) != len(want) {
					t.Fatalf("table %d: parsed %d segments, want %d: %+v", id, len(segs), len(want), segs)
				}
				for i := range want {
					if segs[i] != want[i] {
						t.Fatalf("table %d segment %d = %+v, want %+v", id, i, segs[i], want[i])
					}
				}
			}
		})
	}
}

// TestReadObjStateFileAbsent pins the no-file case: empty map, no error.
func TestReadObjStateFileAbsent(t *testing.T) {
	s := &Site{Cfg: Config{Dir: t.TempDir()}}
	if got := s.readObjStateFile(); len(got) != 0 {
		t.Fatalf("absent file parsed as %+v, want empty", got)
	}
}

// TestObjStateSegmentRoundtrip pins the persisted format end to end:
// SetObjectSegments writes segment lines that read back identically, and a
// dirty reseed keeps the boundaries and horizons while demoting the states.
func TestObjStateSegmentRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := &Site{Cfg: Config{Dir: dir}}
	s.SetObjectSegments(7, []int64{100, 200}, ObjHistoricalCopy, 55)

	r := &Site{Cfg: Config{Dir: dir}}
	got := r.readObjStateFile()
	segs := got[7].segs
	full := expr.FullKeyRange()
	want := []segStatus{
		{rng: expr.KeyRange{Lo: full.Lo, Hi: 100}, state: ObjHistoricalCopy, copiedThrough: 55},
		{rng: expr.KeyRange{Lo: 100, Hi: 200}, state: ObjHistoricalCopy, copiedThrough: 55},
		{rng: expr.KeyRange{Lo: 200, Hi: full.Hi}, state: ObjHistoricalCopy, copiedThrough: 55},
	}
	if len(segs) != len(want) {
		t.Fatalf("round-tripped %d segments, want %d: %+v", len(segs), len(want), segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}

	// Dirty reseed: boundaries and copiedThrough hints survive, states drop
	// to NeedsRecovery.
	r.seedObjectStates(true, []int32{7})
	for i, seg := range r.ObjectSegments(7) {
		if seg.State != ObjNeedsRecovery {
			t.Fatalf("dirty reseed segment %d state = %v, want NeedsRecovery", i, seg.State)
		}
		if seg.Range != want[i].rng || seg.CopiedThrough != tuple.Timestamp(55) {
			t.Fatalf("dirty reseed segment %d = %+v, want range %v ct 55", i, seg, want[i].rng)
		}
	}
}
