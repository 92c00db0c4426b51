package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// opFunc performs request rid against the cluster and checks its
// answer; a non-nil error counts the request as failed.
type opFunc func(ctx context.Context, rid uint64) error

// phase is one stretch of open-loop load: Poisson arrivals at rate for
// dur. Requests still pending grace after the last due time are
// cancelled and count as failed, as do requests refused because
// inflight were already outstanding.
type phase struct {
	rate     float64
	dur      time.Duration
	grace    time.Duration
	inflight int
	seed     int64
	firstRID uint64
}

// outcome is one request's fate, timed from when it was due.
type outcome struct {
	due  time.Duration // offset from the phase start
	lat  time.Duration // due → reply; for a failure, due → when it was given up
	late time.Duration // due → handed to the cluster (generator lateness)
	ok   bool
	why  string // why it failed
}

// arrivals draws the due offsets of a Poisson process of the given
// rate over dur.
func arrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var dues []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return dues
		}
		dues = append(dues, d)
	}
}

// runPhase drives op open-loop from a pool of inflight workers and
// returns every request's outcome in due order. A request that comes
// due while inflight requests are outstanding is refused. Every worker
// has exited when it returns.
func runPhase(ctx context.Context, p phase, tr *tracer, op opFunc) []outcome {
	dues := arrivals(p.seed, p.rate, p.dur)
	res := make([]outcome, len(dues))
	start := time.Now()
	deadline := start.Add(p.dur + p.grace)
	pctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	// slots counts requests in flight; work never holds more than
	// that, so sends to it do not block.
	slots := make(chan struct{}, p.inflight)
	work := make(chan int, p.inflight)
	var wg sync.WaitGroup
	for w := 0; w < p.inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				due := start.Add(dues[i])
				rid := p.firstRID + uint64(i)
				sent := time.Now()
				st := tr.begin()
				err := op(pctx, rid)
				tr.end("bench.op", st, rid, client, nil)
				done := time.Now()
				res[i].late = sent.Sub(due)
				switch {
				case err == nil && done.Before(deadline):
					res[i].ok = true
					res[i].lat = done.Sub(due)
				case err == nil || pctx.Err() != nil:
					res[i].lat, res[i].why = deadline.Sub(due), "pending at the deadline"
				default:
					res[i].lat, res[i].why = deadline.Sub(due), err.Error()
				}
				<-slots
			}
		}()
	}
	for i, d := range dues {
		due := start.Add(d)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res[i].due = d
		if ctx.Err() != nil {
			res[i].lat, res[i].why = deadline.Sub(due), "cancelled"
			continue
		}
		select {
		case slots <- struct{}{}:
			work <- i
		default:
			res[i].lat, res[i].why = deadline.Sub(due), "refused at the in-flight cap"
		}
	}
	close(work)
	wg.Wait()
	return res
}

// summary condenses a phase's outcomes.
type summary struct {
	rate      float64
	attempted int
	failed    int
	p01, p50  time.Duration
	p99       time.Duration
	lateP99   time.Duration
	outage    time.Duration
	failures  map[string]int // failed requests by reason
}

func summarize(rate float64, res []outcome, limit time.Duration) summary {
	s := summary{rate: rate, attempted: len(res)}
	lats := make([]float64, len(res))
	lates := make([]float64, 0, len(res))
	var runStart time.Duration
	inRun := false
	for i, o := range res {
		lats[i] = float64(o.lat)
		if !o.ok {
			s.failed++
			if s.failures == nil {
				s.failures = map[string]int{}
			}
			s.failures[o.why]++
		} else {
			lates = append(lates, float64(o.late))
		}
		bad := !o.ok || o.lat > limit
		switch {
		case bad && !inRun:
			inRun, runStart = true, o.due
		case !bad && inRun:
			inRun = false
		}
		if bad && o.due-runStart > s.outage {
			s.outage = o.due - runStart
		}
	}
	s.p01 = time.Duration(quantile(lats, 0.01))
	s.p50 = time.Duration(quantile(lats, 0.5))
	s.p99 = time.Duration(quantile(lats, 0.99))
	s.lateP99 = time.Duration(quantile(lates, 0.99))
	return s
}

func (s summary) failFrac() float64 { return ratio(float64(s.failed), float64(s.attempted)) }

// meets reports whether the phase met the workload's limits: p99
// within the latency limit and at most 0.1% failed. A failed request
// counts as missing the limit, so the first condition also means at
// least 99% of the offered requests were answered in time: a growing
// backlog fails it.
func (s summary) meets(limit time.Duration) bool {
	return s.attempted > 0 && s.p99 <= limit && s.failFrac() <= 0.001
}
