package campaignd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/campaignd"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/observatory"
)

// refBook is the reference lease book: the linear-scan algorithm the
// indexed Coordinator replaced, which walks every trial on every call. It
// keeps the Coordinator's journal, report and error text, so the two can
// be compared after every operation.
type refBook struct {
	ttl        time.Duration
	spec       campaignd.CampaignSpec
	sink       *observatory.Sink
	now        func() time.Time
	trials     []refTrial
	done       int
	resumed    int
	nextLease  uint64
	duplicates int
	expiries   int
	rng        *rand.Rand
	report     *fleet.Report
}

type refTrial struct {
	state       int // 0 pending, 1 leased, 2 done
	seed        int64
	leaseID     uint64
	expiry      time.Time
	attempts    int
	availableAt time.Time
	result      fleet.TrialResult
}

func newRefBook(spec campaignd.CampaignSpec, ttl time.Duration, sink *observatory.Sink,
	resumed map[int]fleet.TrialResult, now func() time.Time) *refBook {
	if ttl <= 0 {
		ttl = campaignd.DefaultLeaseTTL
	}
	b := &refBook{
		ttl: ttl, spec: spec, sink: sink, now: now,
		trials: make([]refTrial, spec.Trials),
		rng:    rand.New(faults.SeedPCG(new(rand.PCG), spec.BaseSeed)),
	}
	for i := range b.trials {
		b.trials[i].seed = faults.DeriveSeed(spec.BaseSeed, i)
	}
	if resumed == nil {
		raw, _ := spec.Canonical()
		sink.Emit(observatory.Event{Type: observatory.EventCampaignStart, Trial: -1, Raw: raw})
	}
	for i, res := range resumed {
		b.trials[i].state = 2
		b.trials[i].result = res
		b.done++
	}
	b.resumed = b.done
	b.maybeFinish()
	return b
}

func (b *refBook) reclaim(now time.Time) {
	for i := range b.trials {
		tr := &b.trials[i]
		if tr.state != 1 || tr.expiry.After(now) {
			continue
		}
		tr.state = 0
		tr.availableAt = now.Add(campaignd.Redispatch.Delay(tr.attempts, b.rng))
		b.expiries++
	}
}

func (b *refBook) AcquireLease() campaignd.Lease {
	now := b.now()
	b.reclaim(now)
	if b.done == len(b.trials) {
		return campaignd.Lease{Status: campaignd.LeaseDone}
	}
	var nextAvail time.Time
	for i := range b.trials {
		tr := &b.trials[i]
		if tr.state != 0 {
			continue
		}
		if tr.availableAt.After(now) {
			if nextAvail.IsZero() || tr.availableAt.Before(nextAvail) {
				nextAvail = tr.availableAt
			}
			continue
		}
		b.nextLease++
		tr.state, tr.leaseID, tr.expiry = 1, b.nextLease, now.Add(b.ttl)
		tr.attempts++
		if tr.attempts == 1 {
			b.sink.Emit(observatory.TrialStart(i, tr.seed))
		}
		return campaignd.Lease{Status: campaignd.LeaseGranted, Trial: i, Seed: tr.seed, ID: tr.leaseID, TTL: b.ttl}
	}
	wait := b.ttl / 4
	if !nextAvail.IsZero() {
		if until := nextAvail.Sub(now); until < wait {
			wait = until
		}
	}
	if wait < 50*time.Millisecond {
		wait = 50 * time.Millisecond
	}
	return campaignd.Lease{Status: campaignd.LeaseWait, RetryAfter: wait}
}

func (b *refBook) Heartbeat(leaseID uint64) error {
	now := b.now()
	b.reclaim(now)
	for i := range b.trials {
		if tr := &b.trials[i]; tr.state == 1 && tr.leaseID == leaseID {
			tr.expiry = now.Add(b.ttl)
			return nil
		}
	}
	return campaignd.ErrLeaseGone
}

func (b *refBook) Submit(index int, res fleet.TrialResult) error {
	if index < 0 || index >= len(b.trials) {
		return fmt.Errorf("%w: trial %d out of range", campaignd.ErrBadResult, index)
	}
	tr := &b.trials[index]
	if res.Trial != index || res.Seed != tr.seed || !ranStatus(res.Status) {
		return fmt.Errorf("%w: got trial=%d seed=%d status=%q, lease table says trial=%d seed=%d",
			campaignd.ErrBadResult, res.Trial, res.Seed, res.Status, index, tr.seed)
	}
	if tr.state == 2 {
		b.duplicates++
		return campaignd.ErrTrialDone
	}
	tr.state, tr.result = 2, res
	b.done++
	var buf [5]observatory.Event
	evs, seq := observatory.AppendTrialEvents(buf[:0], res)
	raw, _ := json.Marshal(res)
	evs = append(evs, observatory.Event{Type: observatory.EventTrialResult, Trial: res.Trial, Seq: seq, Raw: raw})
	if cp, due := observatory.Checkpoint(b.done, len(b.trials)); due {
		evs = append(evs, cp)
	}
	b.sink.EmitBatch(evs)
	b.maybeFinish()
	return nil
}

func (b *refBook) maybeFinish() {
	if b.report != nil || b.done != len(b.trials) {
		return
	}
	results := make([]fleet.TrialResult, len(b.trials))
	for i := range b.trials {
		results[i] = b.trials[i].result
	}
	b.report = fleet.NewReport(b.spec.BaseSeed, time.Duration(b.spec.MaxPerTrialNanos), results)
}

func (b *refBook) Leased() int {
	b.reclaim(b.now())
	n := 0
	for i := range b.trials {
		if b.trials[i].state == 1 {
			n++
		}
	}
	return n
}

func (b *refBook) Snapshot() campaignd.Status {
	b.reclaim(b.now())
	s := campaignd.Status{
		Trials: len(b.trials), Done: b.done, Resumed: b.resumed,
		Expiries: b.expiries, Duplicates: b.duplicates, Complete: b.report != nil,
	}
	for i := range b.trials {
		switch b.trials[i].state {
		case 1:
			s.Leased++
		case 0:
			s.Pending++
		}
	}
	return s
}

func ranStatus(status string) bool {
	switch status {
	case fleet.StatusFinding, fleet.StatusTimeout, fleet.StatusStalled, fleet.StatusPanic, fleet.StatusError:
		return true
	}
	return false
}

// randResult is a result trial i at seed could report.
func randResult(r *rand.Rand, i int, seed int64) fleet.TrialResult {
	statuses := []string{fleet.StatusFinding, fleet.StatusTimeout, fleet.StatusStalled, fleet.StatusPanic, fleet.StatusError}
	res := fleet.TrialResult{
		Trial: i, Seed: seed, Status: statuses[r.IntN(len(statuses))],
		VirtualElapsed: time.Duration(r.IntN(1000)) * time.Millisecond,
		FramesSent:     uint64(r.IntN(5000)),
	}
	if res.Status == fleet.StatusFinding {
		res.TimeToFinding, res.Oracle, res.Detail, res.TriggerID, res.Findings =
			res.VirtualElapsed, "unlock", "door unlocked", "0d7", 1
	}
	return res
}

// TestLeaseBookMatchesReference drives the Coordinator and the reference
// linear-scan book with the same random operations — leases by several
// workers, heartbeats on live, stale and unknown lease IDs, valid, stale,
// duplicate and malformed submissions, clock steps past the lease TTL —
// over fresh and resumed campaigns, and compares every lease decision,
// error, status and the journal bytes after each operation.
func TestLeaseBookMatchesReference(t *testing.T) {
	ttls := []time.Duration{0, 100 * time.Millisecond, time.Second}
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		ops := 0
		for campaign := 0; ops < 3000; campaign++ {
			spec := campaignd.CampaignSpec{
				Target: "bench", Trials: 1 + r.IntN(48), BaseSeed: r.Int64N(1 << 40),
				MaxPerTrialNanos: int64(time.Second),
			}
			ttl := ttls[r.IntN(len(ttls))]
			var resumed map[int]fleet.TrialResult
			if r.IntN(2) == 0 {
				resumed = map[int]fleet.TrialResult{}
				p := r.Float64()
				for i := 0; i < spec.Trials; i++ {
					if r.Float64() < p {
						resumed[i] = randResult(r, i, faults.DeriveSeed(spec.BaseSeed, i))
					}
				}
			}
			name := fmt.Sprintf("seed %d campaign %d", seed, campaign)
			ops += checkAgainstReference(t, name, r, spec, ttl, resumed, 50+r.IntN(400))
			if t.Failed() {
				return
			}
		}
	}
}

// checkAgainstReference runs n random operations on one campaign and
// returns n.
func checkAgainstReference(t *testing.T, name string, r *rand.Rand, spec campaignd.CampaignSpec,
	ttl time.Duration, resumed map[int]fleet.TrialResult, n int) int {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	var gotJ, wantJ bytes.Buffer
	got, err := campaignd.New(campaignd.Config{
		Spec: spec, LeaseTTL: ttl, Sink: observatory.NewSink(&gotJ), Resumed: resumed,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	campaignd.SetNow(got, clock)
	want := newRefBook(spec, ttl, observatory.NewSink(&wantJ), resumed, clock)
	steps := []time.Duration{time.Millisecond, 20 * time.Millisecond, want.ttl / 2,
		want.ttl + time.Millisecond, 2 * want.ttl, 6 * time.Second}

	var grants []campaignd.Lease // every lease granted, oldest first
	seedOf := func(i int) int64 { return faults.DeriveSeed(spec.BaseSeed, i) }
	for op := 0; op < n; op++ {
		var desc string
		var gotOut, wantOut any
		stepped := false
		switch k := r.IntN(100); {
		case k < 30:
			w := fmt.Sprintf("w%d", r.IntN(4))
			desc = "lease " + w
			gl, wl := got.AcquireLease(w), want.AcquireLease()
			gotOut, wantOut = gl, wl
			if gl.Status == campaignd.LeaseGranted {
				grants = append(grants, gl)
			}
		case k < 45:
			var id uint64
			switch {
			case len(grants) > 0 && r.IntN(3) > 0:
				id = grants[len(grants)-1-r.IntN(min(len(grants), 6))].ID // recent: mostly live
			case len(grants) > 0 && r.IntN(2) == 0:
				id = grants[r.IntN(len(grants))].ID // any: often stale
			default:
				id = uint64(len(grants) + 1 + r.IntN(100)) // never issued
			}
			desc = fmt.Sprintf("heartbeat %d", id)
			gotOut, wantOut = fmt.Sprint(got.Heartbeat(id)), fmt.Sprint(want.Heartbeat(id))
		case k < 80:
			index, lease := r.IntN(spec.Trials), uint64(0)
			if len(grants) > 0 && r.IntN(4) > 0 {
				g := grants[len(grants)-1-r.IntN(min(len(grants), 8))]
				index, lease = g.Trial, g.ID
			}
			res := randResult(r, index, seedOf(index))
			switch r.IntN(10) {
			case 0: // wrong seed
				res.Seed++
			case 1: // out of range
				index = []int{-1, spec.Trials, spec.Trials + 7}[r.IntN(3)]
				res.Trial = index
			case 2: // a status no run trial ends in
				res.Status = fleet.StatusSkipped
			case 3: // stale lease: the result is still accepted
				lease = uint64(r.IntN(len(grants) + 1))
			}
			desc = fmt.Sprintf("submit trial %d lease %d status %s", index, lease, res.Status)
			gotOut, wantOut = fmt.Sprint(got.Submit(index, lease, res)), fmt.Sprint(want.Submit(index, res))
		case k < 92:
			d := steps[r.IntN(len(steps))]
			now = now.Add(d)
			desc, stepped = fmt.Sprintf("clock +%v", d), true
		case k < 96:
			desc = "snapshot"
			gotOut, wantOut = got.Snapshot(), want.Snapshot()
		default:
			desc = "leased"
			gotOut, wantOut = got.Leased(), want.Leased()
		}
		if gotOut != wantOut {
			t.Fatalf("%s op %d (%s): got %+v, reference %+v", name, op, desc, gotOut, wantOut)
		}
		if !bytes.Equal(gotJ.Bytes(), wantJ.Bytes()) {
			t.Fatalf("%s op %d (%s): journal differs:\n%s\n--- reference ---\n%s", name, op, desc, gotJ.Bytes(), wantJ.Bytes())
		}
		// A clock step leaves the reclaim it makes due to the next
		// operation's own path; sampling the status here would do it first.
		if !stepped {
			if gs, ws := got.Snapshot(), want.Snapshot(); gs != ws {
				t.Fatalf("%s op %d (%s): status %+v, reference %+v", name, op, desc, gs, ws)
			}
		}
	}
	if (got.Report() == nil) != (want.report == nil) {
		t.Fatalf("%s: report %v, reference %v", name, got.Report() != nil, want.report != nil)
	}
	if want.report != nil {
		var gb, wb bytes.Buffer
		if err := errors.Join(got.Report().WriteJSON(&gb), want.report.WriteJSON(&wb)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("%s: report differs from the reference", name)
		}
	}
	return n
}
