package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies the boundary a span was recorded at: a call from
// the benchmark into one layer's public function.
type spanName uint8

const (
	spOp           spanName = iota // one benchmark op (root)
	spSetup                        // one world build (root)
	spProfile                      // browser.CollectProfile via bench.CollectBenchProfile
	spBuild                        // browser.New
	spLoad                         // LoadHTML + setup ExecScript + LookupScriptFunc
	spWarmup                       // the warm-up op of a set-up
	spInvoke                       // Browser.InvokeScriptFunc
	spHousekeeping                 // Browser.Housekeeping
	spTraceStart                   // gatetrace.Tracer.Start
	spAllow                        // resilience.Group.Allow
	spTraceBind                    // ffi.Thread.SetTraceContext + gatetrace.Tracer.Bind
	spShield                       // supervise.Supervisor.Shield
	spCall                         // ffi.Thread.Call
	spBody                         // the benchmark-owned work body
	spTraceUnbind                  // gatetrace.Tracer.Unbind + SetTraceContext(nil)
	spRecord                       // resilience.Group.Record*
	spTraceFinish                  // gatetrace.Context.Finish
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "setup", "core.profile", "browser.build", "browser.load", "warmup",
	"browser.invoke", "browser.housekeeping",
	"gatetrace.start", "resilience.allow", "gatetrace.bind", "supervise.shield",
	"ffi.call", "vm.body", "gatetrace.unbind", "resilience.record", "gatetrace.finish",
}

// maxSpansPerRoot bounds the spans one root can open; a root is only
// traced when the buffer still has room for all of them, so no traced
// op loses a child.
const maxSpansPerRoot = 64

type span struct {
	start, end int64 // ns since the buffer's epoch
	parent     int32 // index of the enclosing span, -1 for a root
	op         uint32
	name       spanName
}

// spanBuf is one goroutine's preallocated span buffer. A nil buffer is
// the untraced state: every method is a no-op returning -1.
type spanBuf struct {
	epoch time.Time
	spans []span
	off   bool   // the current root did not fit; record nothing until the next
	lost  uint64 // roots not traced because the buffer was full
}

func newSpanBuf(epoch time.Time, capacity int) *spanBuf {
	return &spanBuf{epoch: epoch, spans: make([]span, 0, capacity)}
}

// full reports whether the buffer has no room left for another root.
func (b *spanBuf) full() bool {
	return b != nil && cap(b.spans)-len(b.spans) < maxSpansPerRoot
}

// root opens a root span for op.
func (b *spanBuf) root(name spanName, op uint32) int32 {
	if b == nil {
		return -1
	}
	b.off = b.full()
	if b.off {
		b.lost++
		return -1
	}
	return b.begin(name, -1, op)
}

// begin opens a child span under parent.
func (b *spanBuf) begin(name spanName, parent int32, op uint32) int32 {
	if b == nil || b.off {
		return -1
	}
	b.spans = append(b.spans, span{start: int64(time.Since(b.epoch)), parent: parent, op: op, name: name})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = int64(time.Since(b.epoch))
}

// selfTimes returns each span's duration minus the time its children
// cover (children of one parent never overlap: every trace is recorded
// by one goroutine making nested calls).
func (b *spanBuf) selfTimes() []int64 {
	self := make([]int64, len(b.spans))
	for i, s := range b.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// durations returns the durations of every span named name.
func durations(bufs []*spanBuf, name spanName) []int64 {
	var out []int64
	for _, b := range bufs {
		for _, s := range b.spans {
			if s.name == name {
				out = append(out, s.end-s.start)
			}
		}
	}
	return out
}

// selfOf returns the self time of every span named name.
func selfOf(bufs []*spanBuf, name spanName) []int64 {
	var out []int64
	for _, b := range bufs {
		self := b.selfTimes()
		for i, s := range b.spans {
			if s.name == name {
				out = append(out, self[i])
			}
		}
	}
	return out
}

// perRootSum returns, for every traced root that holds at least one span
// in names, the summed duration of those spans.
func perRootSum(bufs []*spanBuf, names ...spanName) []int64 {
	want := [numSpanNames]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []int64
	for _, b := range bufs {
		var sum int64
		hit := false
		for i, s := range b.spans {
			if s.parent < 0 && i > 0 && hit {
				out = append(out, sum)
				sum, hit = 0, false
			}
			if want[s.name] {
				sum += s.end - s.start
				hit = true
			}
		}
		if hit {
			out = append(out, sum)
		}
	}
	return out
}

// writeSpans writes every buffer as tab-separated rows (one per span,
// with its self time) to path, creating the directory, and returns a
// one-line summary for the table.
func writeSpans(path string, bufs []*spanBuf) (string, error) {
	var n int
	var lost uint64
	for _, b := range bufs {
		n += len(b.spans)
		lost += b.lost
	}
	summary := fmt.Sprintf("spans: %d written to %s (%d roots untraced: buffer full)", n, path, lost)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "worker\tindex\tparent\top\tname\tstart_ns\tend_ns\tself_ns")
	for wi, b := range bufs {
		self := b.selfTimes()
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n",
				wi, i, s.parent, s.op, spanNames[s.name], s.start, s.end, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return summary, f.Close()
}
