package bus_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/target"
	"repro/internal/telemetry"
)

// published reads the plane's published counter and gauge values from
// its JSON snapshot, keyed as name{k=v,...} with the label keys sorted.
func published(t *testing.T, tel *telemetry.Telemetry) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := tel.Registry.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string            `json:"name"`
			Type   string            `json:"type"`
			Labels map[string]string `json:"labels"`
			Value  json.RawMessage   `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, m := range doc.Metrics {
		if m.Type != "counter" {
			continue
		}
		var v uint64
		if err := json.Unmarshal(m.Value, &v); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		out[seriesKey(m.Name, m.Labels)] = v
	}
	return out
}

func seriesKey(name string, labels map[string]string) string {
	var kv []string
	for k, v := range labels {
		kv = append(kv, k+"="+v)
	}
	sort.Strings(kv)
	if len(kv) == 0 {
		return name
	}
	return name + "{" + strings.Join(kv, ",") + "}"
}

// ownerCounts is what each view must read: the counts the bench bus, its
// ports, its ECUs and the campaign keep. dispatched holds the frames each
// ECU handed to its handlers, counted by a catch-all handler the test
// installs, so it does not read the count under test.
func ownerCounts(b *target.Built, dispatched map[string]uint64) map[string]uint64 {
	bb := b.Bench.Bus
	st := bb.Stats()
	want := map[string]uint64{
		"can_frames_delivered_total{bus=bench}":  st.FramesDelivered,
		"can_bits_transmitted_total{bus=bench}":  st.BitsTransmitted,
		"can_frames_corrupted_total{bus=bench}":  st.FramesCorrupted,
		"can_frames_dropped_total{bus=bench}":    st.FramesDropped,
		"can_frames_duplicated_total{bus=bench}": st.FramesDuplicated,
	}
	for _, p := range bus.PortsOf(bb) {
		ps := p.Stats()
		lbl := fmt.Sprintf("{bus=bench,port=%s}", bus.NameOf(p))
		want["can_port_tx_frames_total"+lbl] = ps.TxFrames
		want["can_port_rx_frames_total"+lbl] = ps.RxFrames
		want["can_port_arb_losses_total"+lbl] = ps.ArbLosses
		want["can_port_dropped_total"+lbl] = ps.Dropped
	}
	for name, n := range dispatched {
		want["ecu_frames_dispatched_total{ecu="+name+"}"] = n
	}
	c := b.World.Campaign
	want["campaign_frames_sent_total"] = c.FramesSent()
	byCause := c.SendErrorsByCause()
	for _, cause := range []string{core.CauseQueueFull, core.CauseBusOff, core.CauseDetached, core.CauseRetryExhausted, core.CauseOther} {
		want["campaign_send_errors_total{cause="+cause+"}"] = byCause[cause]
	}
	return want
}

// TestViewsReadOwnersInGuidedRun runs a live-instrumented guided bench
// campaign to its unlock, on a cold world and again after World.Reset,
// and checks at every publication — each 256th fuzz frame and the Flush
// at Stop — that every counter view reads exactly its owner's count.
func TestViewsReadOwnersInGuidedRun(t *testing.T) {
	tel := telemetry.New(0)
	b, err := target.Build(target.Spec{Target: "bench", Stop: true},
		core.Config{Mode: core.ModeGuided, Seed: 3, Interval: time.Millisecond},
		target.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	dispatched := make(map[string]uint64)
	for name, e := range b.Bench.ECUs() {
		dispatched[name] = 0
		e.HandleAll(func(bus.Message) { dispatched[name]++ })
	}
	check := func(when string) {
		t.Helper()
		got := published(t, tel)
		for key, want := range ownerCounts(b, dispatched) {
			if n, ok := got[key]; !ok {
				t.Fatalf("%s: series %s not exported", when, key)
			} else if n != want {
				t.Fatalf("%s: %s = %d, its owner counts %d", when, key, n, want)
			}
		}
	}
	run := func(life string) {
		t.Helper()
		c, sched := b.World.Campaign, b.World.Sched
		c.Start()
		publishes := 0
		for c.Running() && sched.Now() < 30*time.Minute {
			before := c.FramesSent()
			sched.Step()
			if n := c.FramesSent(); n != before && n%256 == 0 {
				publishes++
				check(fmt.Sprintf("%s, publish at frame %d", life, n))
			}
		}
		c.Stop()
		if len(c.Findings()) == 0 || publishes == 0 {
			t.Fatalf("%s: %d findings after %d publications, want an unlock after several", life, len(c.Findings()), publishes)
		}
		check(life + ", after Flush")
		t.Logf("%s: unlock after %d frames, %d publications checked", life, c.FramesSent(), publishes)
		if got := published(t, tel)["can_frames_delivered_total{bus=bench}"]; got == 0 {
			t.Fatalf("%s: no frames delivered", life)
		}
	}
	run("cold world")
	if err := b.World.Reset(fleet.TrialSpec{Seed: 8}); err != nil {
		t.Fatal(err)
	}
	for name := range dispatched {
		dispatched[name] = 0
	}
	check("after World.Reset")
	run("reset world")
}

// TestPortConnectedAfterInstrumentReadsZero connects a port to an
// instrumented bus that has already carried traffic: the new port's
// series read zero, as its stats do, and then follow its stats.
func TestPortConnectedAfterInstrumentReadsZero(t *testing.T) {
	s := clock.New()
	b := bus.New(s, bus.WithName("x"))
	tel := telemetry.New(0)
	b.Instrument(tel)
	tx := b.Connect("tx")
	b.Connect("rx").SetReceiver(func(bus.Message) {})
	f := can.MustNew(0x123, []byte{1, 2})
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := tx.Send(f); err != nil {
				t.Fatal(err)
			}
			s.RunFor(time.Millisecond)
		}
	}
	send(5)
	late := b.Connect("late")
	late.SetReceiver(func(bus.Message) {})
	series := []string{"can_port_tx_frames_total", "can_port_rx_frames_total", "can_port_arb_losses_total", "can_port_dropped_total"}
	got := published(t, tel)
	for _, name := range series {
		if n, ok := got[name+"{bus=x,port=late}"]; !ok || n != 0 {
			t.Errorf("%s of the late port = %d (exported %v), want 0", name, n, ok)
		}
	}
	if st := late.Stats(); st != (bus.PortStats{}) {
		t.Fatalf("late port stats = %+v, want zero", st)
	}
	if got["can_port_rx_frames_total{bus=x,port=rx}"] != 5 {
		t.Fatalf("rx port read %d, want 5", got["can_port_rx_frames_total{bus=x,port=rx}"])
	}
	tel.Buffer()
	send(3)
	tel.Flush()
	got = published(t, tel)
	if n := got["can_port_rx_frames_total{bus=x,port=late}"]; n != 3 || late.Stats().RxFrames != 3 {
		t.Fatalf("late port rx series %d, stats %d, want 3", n, late.Stats().RxFrames)
	}
}
