//ripslint:allow-file wallclock the benchmark measures client-observed wall time of cluster jobs

package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rips"
)

// clusterKeys alternate in cluster-2node's closed loop.
var clusterKeys = []appKey{{"nq", 13}, {"ida", 2}}

// clusterRepeats is how often each key runs per node and rotation. An
// IDA* job takes several times an nq13 job; two to one keeps p50
// inside the nq13 jobs and p90 inside the IDA* ones, rather than on the
// gap between the two, where a run's quantile would jump from seed to
// seed.
var clusterRepeats = map[appKey]int{{"nq", 13}: 2, {"ida", 2}: 1}

const clusterNodes = 2

// clusterRotation is how long one rotation takes on the reference host
// (2 cores); see rotations. Ts is measured every clusterTsEvery
// rotations, about every two seconds; see seqClock.
const (
	clusterRotation = 1300 * time.Millisecond
	clusterTsEvery  = 2
)

// runCluster is the closed loop of one client against a two-node ripsd
// cluster on localhost TCP. Every (app, node) pair runs clusterRepeats
// times per rotation, so some jobs are submitted to a node that is not
// their ring coordinator and are forwarded.
func runCluster(ctx context.Context, o *options, ps *procs) (*report, error) {
	rep := newReport()
	rep.workers = clusterNodes
	rep.oversubscribed = clusterNodes > runtime.NumCPU()

	bs := baselines{}
	var nodes []*proc
	var clients []*client
	teardown := func() {
		for _, c := range clients {
			c.close()
		}
		for _, p := range nodes {
			ps.release(p)
		}
		nodes, clients = nil, nil
	}
	defer teardown()
	err := setUp(o, rep, bs, clusterKeys, func(r int) error {
		teardown()
		var err error
		nodes, clients, err = startCluster(ctx, ps, o, r)
		if err != nil {
			return err
		}
		for _, c := range clients {
			for _, k := range clusterKeys {
				spec := rips.JobSpec{App: k.app, Size: k.size, Tenant: "warmup", Config: rips.ConfigJSON{Backend: "cluster"}}
				if err := warmup(ctx, c, spec, bs[k]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(o.seed))
	type pair struct {
		key  appKey
		node int
	}
	var rotation []pair
	for _, k := range clusterKeys {
		for n := 0; n < clusterNodes; n++ {
			for r := 0; r < clusterRepeats[k]; r++ {
				rotation = append(rotation, pair{k, n})
			}
		}
	}
	rng.Shuffle(len(rotation), func(i, j int) { rotation[i], rotation[j] = rotation[j], rotation[i] })

	minMembers := clusterNodes
	members := func() error {
		for _, c := range clients {
			m, err := c.members(ctx)
			if err != nil {
				return err
			}
			minMembers = min(minMembers, m)
		}
		return nil
	}

	// window runs the whole rotations that fill dur. The nodes idle
	// while its clock measures Ts in this process.
	window := func(dur time.Duration, traced bool) ([]*httpJob, *seqClock, time.Time, usage, error) {
		clock := newSeqClock(bs, clusterKeys, clusterTsEvery)
		u0, err := sumUsage(nodes)
		if err != nil {
			return nil, nil, time.Time{}, usage{}, err
		}
		var jobs []*httpJob
		t0 := time.Now()
		for rot := 0; rot < rotations(dur, clusterRotation); rot++ {
			if clock.due(rot) {
				if err := clock.mark(); err != nil {
					return nil, nil, time.Time{}, usage{}, err
				}
			}
			for _, p := range rotation {
				j := &httpJob{key: p.key, node: p.node, trace: len(jobs), rot: rot}
				j.spec = rips.JobSpec{App: p.key.app, Size: p.key.size, Tenant: "bench",
					Config: rips.ConfigJSON{Backend: "cluster", Seed: rng.Int63()}}
				c := clients[p.node]
				j.sent = time.Now()
				j.due = j.sent
				j.id, j.err = c.submit(ctx, j.spec)
				j.acked = time.Now()
				if j.err == nil {
					var doc rips.ResultJSON
					doc, j.got, j.err = c.awaitResult(ctx, j.id)
					if j.err == nil {
						j.err = bs[j.key].check(doc.Tasks, doc.AppResult)
					}
				}
				if ctx.Err() != nil {
					return nil, nil, time.Time{}, usage{}, ctx.Err()
				}
				jobs = append(jobs, j)
			}
			if traced {
				if err := members(); err != nil {
					return nil, nil, time.Time{}, usage{}, err
				}
			}
		}
		if err := clock.mark(); err != nil {
			return nil, nil, time.Time{}, usage{}, err
		}
		u1, err := sumUsage(nodes)
		if err != nil {
			return nil, nil, time.Time{}, usage{}, err
		}
		if err := settle(ctx, clients, jobs, bs); err != nil {
			return nil, nil, time.Time{}, usage{}, err
		}
		return jobs, clock, t0, usage{cpu: u1.cpu - u0.cpu, hwmKB: u1.hwmKB}, nil
	}

	dur := o.window()
	if o.trace {
		dur /= 2
	}
	jobs, clock, start, u, err := window(dur, false)
	if err != nil {
		return nil, err
	}
	good, last := httpSamples(rep, countFailures(rep, jobs), "cluster", func(j *httpJob) time.Duration { return clock.ts(j.key, j.rot) })
	endToEnd(rep, good, last.Sub(start)-clock.spent, u)
	rep.note("window: %d jobs in %d rotations of %d", len(jobs), len(jobs)/len(rotation), len(rotation))
	if !o.trace {
		return rep, nil
	}

	if err := members(); err != nil {
		return nil, err
	}
	tjobs, _, _, _, err := window(dur, true)
	if err != nil {
		return nil, err
	}
	tgood := countFailures(rep, tjobs)
	tr := newTracer()
	serveLayers(rep, tr, bs, tgood)
	rep.tracer, rep.tracedJobs = tr, len(tjobs)

	var walls, forward []float64
	var wallSum, busy, nonbusy, phases, nonlocal, tasks float64
	for _, j := range tgood {
		res := j.doc.Result
		w := float64(j.wall())
		walls = append(walls, ms(j.wall()))
		forward = append(forward, ms(j.latency()-j.wall()))
		wallSum += w
		busy += res.Efficiency * w
		nonbusy += (1 - res.Efficiency) * w
		phases += float64(res.Phases)
		nonlocal += float64(res.Nonlocal)
		tasks += float64(res.Tasks)
	}
	n := float64(len(tgood))
	rep.layer["cluster.wall_ms_p50"] = metric{median(walls), "ms"}
	rep.layer["cluster.forward_ms_p50"] = metric{median(forward), "ms"}
	rep.layer["cluster.phases_per_job"] = metric{ratio(phases, n), "count"}
	rep.layer["cluster.nonbusy_us_per_phase"] = metric{ratio(nonbusy, phases) / float64(time.Microsecond), "us"}
	rep.layer["cluster.busy_frac"] = metric{ratio(busy, wallSum), "ratio"}
	rep.layer["cluster.nonlocal_frac"] = metric{ratio(nonlocal, tasks), "ratio"}
	rep.layer["cluster.members_min"] = metric{float64(minMembers), "count"}
	rep.note("trace.overhead_frac not measured: the spans are rebuilt from job documents, so tracing adds nothing inside the servers")
	return rep, nil
}

// startCluster starts the two nodes, the second joining the first, and
// waits until each sees both members on its ring.
func startCluster(ctx context.Context, ps *procs, o *options, rep int) ([]*proc, []*client, error) {
	var nodes []*proc
	var clients []*client
	join := ""
	for n := 0; n < clusterNodes; n++ {
		var peer string
		p, addr, err := startRipsd(ctx, ps, o.ripsd, fmt.Sprintf("ripsd-cluster-%d-%d", rep, n), func() ([]string, error) {
			var err error
			peer, err = freeAddr()
			args := []string{"-workers", "1", "-cluster", peer}
			if join != "" {
				args = append(args, "-join", join)
			}
			return args, err
		})
		if err != nil {
			return nodes, clients, err
		}
		if join == "" {
			join = peer
		}
		nodes = append(nodes, p)
		clients = append(clients, newClient(addr, 1))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, c := range clients {
			m, err := c.members(ctx)
			if err != nil {
				return nodes, clients, err
			}
			converged = converged && m == clusterNodes
		}
		if converged {
			return nodes, clients, nil
		}
		if time.Now().After(deadline) {
			return nodes, clients, fmt.Errorf("cluster ring did not converge to %d members within 10s", clusterNodes)
		}
		if err := sleepCtx(ctx, 20*time.Millisecond); err != nil {
			return nodes, clients, err
		}
	}
}
