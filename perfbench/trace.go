//ripslint:allow-file wallclock spans and OnPhase records carry wall-clock timestamps by design

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"rips"
)

// span is one interval of a job's life, recorded by the benchmark
// around a call into a layer (or reconstructed from the timestamps a
// layer reports). Times are Unix nanoseconds; Parent is the index of
// the enclosing span, -1 for a job's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<14)} }

// add records a span and returns its index for children to name.
func (t *tracer) add(name string, start, end time.Time, parent, job int) int {
	t.spans = append(t.spans, span{Name: name, Start: start.UnixNano(), End: end.UnixNano(), Parent: parent, Job: job})
	return len(t.spans) - 1
}

// layer is the module a span belongs to: its name up to the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	spans       int
	total, self time.Duration
}

// selfTimes computes each layer's self time: a span's duration minus
// the part of it its children cover.
func (t *tracer) selfTimes() []layerTime {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range t.spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		self := dur - covered(s, t.spans, children[i])
		l := layer(s.Name)
		r := rows[l]
		if r == nil {
			r = &layerTime{layer: l}
			rows[l] = r
		}
		r.spans++
		r.total += time.Duration(dur)
		r.self += time.Duration(self)
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, all []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].Start, parent.Start), min(all[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSelfTimes prints the per-layer self-time table.
func (t *tracer) writeSelfTimes(w io.Writer, jobs int) {
	rows := t.selfTimes()
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "# self time by layer over %d traced jobs\n", jobs)
	fmt.Fprintf(w, "#   %-8s %7s %12s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self_ms/job", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-8s %7d %12.3f %12.3f %12.4f %6.1f%%\n", r.layer, r.spans, ms(r.total), ms(r.self),
			ratio(ms(r.self), float64(jobs)), 100*ratio(float64(r.self), float64(all)))
	}
}

// dump writes the spans as JSON lines, after a header line carrying the
// run's labels.
func (t *tracer) dump(path string, labels map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"labels": labels}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseRec is one OnPhase event with the wall clock at which it fired.
type phaseRec struct {
	job     int32
	moved   int32
	elapsed time.Duration
	at      int64 // Unix nanoseconds
}

// phaseLog records OnPhase events into a buffer allocated up front. Its
// hook runs on the phase leader with the world stopped, so it neither
// allocates nor blocks; events past the buffer are only counted. Jobs
// run one at a time, and a run's return orders the hook's writes
// before the caller reads them.
type phaseLog struct {
	buf     []phaseRec
	n       int
	dropped int
	job     int32
}

func newPhaseLog(capacity int) *phaseLog { return &phaseLog{buf: make([]phaseRec, capacity)} }

func (l *phaseLog) onPhase(pi rips.PhaseInfo) {
	if l.n == len(l.buf) {
		l.dropped++
		return
	}
	l.buf[l.n] = phaseRec{job: l.job, moved: int32(pi.Moved), elapsed: pi.Elapsed, at: time.Now().UnixNano()}
	l.n++
}

// events returns the recorded events of one job.
func (l *phaseLog) events(job int) []phaseRec {
	var out []phaseRec
	for _, r := range l.buf[:l.n] {
		if int(r.job) == job {
			out = append(out, r)
		}
	}
	return out
}

// histogram is one Prometheus histogram family summed over its labels:
// cumulative counts at each upper bound.
type histogram struct {
	bounds []float64
	cum    []float64
	count  float64
}

// parseHistogram sums the named histogram's buckets over every label
// set in a Prometheus text exposition.
func parseHistogram(text, name string) histogram {
	byBound := map[float64]float64{}
	var h histogram
	for _, line := range strings.Split(text, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue // a comment or another family's line
		}
		if strings.HasPrefix(line, name+"_count") {
			h.count += v
			continue
		}
		le, ok := strings.CutPrefix(line, name+"_bucket{")
		if !ok {
			continue
		}
		_, le, _ = strings.Cut(le, `le="`)
		le, _, _ = strings.Cut(le, `"`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil || math.IsInf(bound, 1) {
			continue
		}
		byBound[bound] += v
	}
	for b := range byBound {
		h.bounds = append(h.bounds, b)
	}
	sort.Float64s(h.bounds)
	for _, b := range h.bounds {
		h.cum = append(h.cum, byBound[b])
	}
	return h
}

// since returns the histogram of the observations made after before.
func (h histogram) since(before histogram) histogram {
	out := histogram{bounds: h.bounds, count: h.count - before.count}
	for i := range h.cum {
		c := h.cum[i]
		if i < len(before.cum) {
			c -= before.cum[i]
		}
		out.cum = append(out.cum, c)
	}
	return out
}

// quantile estimates the q-quantile by linear interpolation inside
// the bucket holding it; 0 when the histogram is empty.
func (h histogram) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for i, b := range h.bounds {
		if h.cum[i] >= rank {
			return lo + (b-lo)*ratio(rank-prev, h.cum[i]-prev)
		}
		lo, prev = b, h.cum[i]
	}
	return lo
}
