package pmopt

import (
	"reflect"
	"testing"

	"hawkset/internal/pmem"
	"hawkset/internal/report"
	"hawkset/internal/sites"
)

// journal builds a hand-written device-op journal. Sites are lines of
// testFile; line 0 is an op with no site.
type journal struct {
	tab *sites.Table
	ops []pmem.Op
}

const testFile = "/m/internal/apps/x/x.go"

func (j *journal) op(kind pmem.OpKind, tid int32, addr uint64, data []byte, line int) {
	var site sites.ID
	if line > 0 {
		site = j.tab.Intern(sites.Frame{File: testFile, Line: line})
	}
	j.ops = append(j.ops, pmem.Op{Kind: kind, TID: tid, Addr: addr, Size: uint32(len(data)), Site: int32(site), Data: data, Seq: len(j.ops)})
}

// zero journals a Ctx.Zero scrub: nil Data, site 0, untraced.
func (j *journal) zero(tid int32, addr uint64, size uint32) {
	j.ops = append(j.ops, pmem.Op{Kind: pmem.OpStore, TID: tid, Addr: addr, Size: size, Seq: -1})
}

// TestSimulateClassifier pins the dynamic classifier on journals that reach
// the branches no registered app reaches (duplicate, post-NT and clean
// flushes, empty fences, uncommitted snapshots). Sites are keyed by their
// line of testFile.
func TestSimulateClassifier(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(j *journal)
		want  map[int]siteDyn
		stats report.OptStats
	}{
		{"duplicate flush in one batch", func(j *journal) {
			j.op(pmem.OpStore, 1, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 10)
			j.op(pmem.OpFlush, 1, 0, nil, 11)
			j.op(pmem.OpFlush, 1, 8, nil, 12) // same line, no store in between
			j.op(pmem.OpFence, 1, 0, nil, 13)
		}, map[int]siteDyn{
			11: {FlushOps: 1},
			12: {FlushOps: 1, ChangelessFlush: 1, DupFlush: 1},
			13: {FenceOps: 1},
		}, report.OptStats{JournalOps: 4, Flushes: 2, Fences: 1, ChangelessFlushes: 1, FlushSites: 2, FenceSites: 1}},

		{"flush after NT store", func(j *journal) {
			j.op(pmem.OpNTStore, 1, pmem.LineSize+8, []byte{9, 9, 9, 9, 9, 9, 9, 9}, 20)
			j.op(pmem.OpFlush, 1, pmem.LineSize, nil, 21)
			j.op(pmem.OpFence, 1, 0, nil, 21)
		}, map[int]siteDyn{
			21: {FlushOps: 1, FenceOps: 1, ChangelessFlush: 1, NTFlush: 1},
		}, report.OptStats{JournalOps: 3, Flushes: 1, Fences: 1, NTStores: 1, ChangelessFlushes: 1, FlushSites: 1, FenceSites: 1}},

		{"flush of a never-written line", func(j *journal) {
			j.op(pmem.OpFlush, 1, 2*pmem.LineSize, nil, 30)
			j.op(pmem.OpFence, 1, 0, nil, 30)
		}, map[int]siteDyn{
			30: {FlushOps: 1, FenceOps: 1, ChangelessFlush: 1, RedundantFence: 1, CleanFlush: 1},
		}, report.OptStats{JournalOps: 2, Flushes: 1, Fences: 1, ChangelessFlushes: 1, FlushSites: 1, FenceSites: 1}},

		{"fence with nothing queued", func(j *journal) {
			j.op(pmem.OpFence, 1, 0, nil, 40)
			j.op(pmem.OpFence, 2, 0, nil, 0)
			j.op(pmem.OpStore, 1, 0, []byte{1}, 41)
			j.op(pmem.OpFlush, 1, 0, nil, 42)
			j.op(pmem.OpFence, 2, 0, nil, 40) // thread 1's flush is not thread 2's
			j.op(pmem.OpFence, 1, 0, nil, 42)
		}, map[int]siteDyn{
			40: {FenceOps: 2, RedundantFence: 2, EmptyFence: 2},
			42: {FlushOps: 1, FenceOps: 1},
		}, report.OptStats{JournalOps: 6, Flushes: 1, Fences: 4, EmptyFences: 3, FlushSites: 1, FenceSites: 2}},

		{"fence commits another site's flush", func(j *journal) {
			j.op(pmem.OpFlush, 1, 3*pmem.LineSize, nil, 50)
			j.op(pmem.OpFence, 1, 0, nil, 51)
			j.op(pmem.OpStore, 1, 0, []byte{7}, 52)
			j.op(pmem.OpFlush, 1, 0, nil, 50)
			j.op(pmem.OpFence, 1, 0, nil, 51)
		}, map[int]siteDyn{
			50: {FlushOps: 2, ChangelessFlush: 1, CleanFlush: 1},
			51: {FenceOps: 2},
		}, report.OptStats{JournalOps: 5, Flushes: 2, Fences: 2, ChangelessFlushes: 1, FlushSites: 1, FenceSites: 1}},

		{"flush never fenced", func(j *journal) {
			j.op(pmem.OpStore, 1, 0, []byte{3}, 60)
			j.op(pmem.OpFlush, 1, 0, nil, 61)
			j.op(pmem.OpFlush, 2, pmem.LineSize, nil, 62)
			j.op(pmem.OpFence, 2, 0, nil, 62)
			j.op(pmem.OpFlush, 2, pmem.LineSize, nil, 62)
		}, map[int]siteDyn{
			61: {FlushOps: 1, Uncommitted: 1},
			62: {FlushOps: 2, FenceOps: 1, ChangelessFlush: 1, RedundantFence: 1, Uncommitted: 1, CleanFlush: 1},
		}, report.OptStats{JournalOps: 5, Flushes: 3, Fences: 1, ChangelessFlushes: 1, FlushSites: 2, FenceSites: 1}},

		{"zero scrub", func(j *journal) {
			j.op(pmem.OpStore, 1, 0, []byte{5, 5, 5, 5}, 70)
			j.op(pmem.OpFlush, 1, 0, nil, 71)
			j.op(pmem.OpFence, 1, 0, nil, 71)
			j.zero(1, 0, pmem.LineSize)
			j.op(pmem.OpFlush, 1, 0, nil, 72)
			j.op(pmem.OpFence, 1, 0, nil, 72)
			j.zero(1, pmem.LineSize, 16)
			j.op(pmem.OpFlush, 1, pmem.LineSize, nil, 0)
			j.op(pmem.OpFence, 1, 0, nil, 73)
		}, map[int]siteDyn{
			71: {FlushOps: 1, FenceOps: 1},
			72: {FlushOps: 1, FenceOps: 1},
			73: {FenceOps: 1},
		}, report.OptStats{JournalOps: 9, Flushes: 3, Fences: 3, ChangelessFlushes: 1, FlushSites: 2, FenceSites: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			j := &journal{tab: sites.NewTable()}
			c.build(j)
			dyn, stats := simulate(j.ops, j.tab, 4*pmem.LineSize)
			got := make(map[string]siteDyn, len(dyn))
			for key, d := range dyn {
				got[key] = *d
			}
			want := make(map[string]siteDyn, len(c.want))
			for line, d := range c.want {
				want[sites.Frame{File: testFile, Line: line}.Key()] = d
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sites:\n got %+v\nwant %+v", got, want)
			}
			if stats != c.stats {
				t.Errorf("stats:\n got %+v\nwant %+v", stats, c.stats)
			}
		})
	}
}
