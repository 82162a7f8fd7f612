package repro

// Golden regression tests: the whole simulation is deterministic by
// design, so exact outputs for fixed seeds are part of the contract. If a
// refactor changes any of these strings, either the change broke
// determinism or it knowingly changed simulation semantics — both need a
// deliberate golden update.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/vehicle"
)

func TestGoldenTable4FuzzerOutput(t *testing.T) {
	want := []string{
		"1.194 0510 6 77 1B E3 B0 AD 89",
		"2.096 034D 0",
		"3.170 0094 4 05 FB F9 25",
		"4.144 046C 3 99 55 98",
		"5.230 0723 8 3C A7 26 00 A5 43 C4 FA",
		"6.112 04C6 1 CD",
	}
	rows := experiments.Table4(2, 6)
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if got := r.String(); got != want[i] {
			t.Fatalf("row %d = %q, want %q (determinism broken?)", i, got, want[i])
		}
	}
}

func TestGoldenVehicleFirstFrames(t *testing.T) {
	sched := clock.New()
	v := vehicle.New(sched, vehicle.Config{Seed: 1})
	var lines []string
	v.TapOBD(vehicle.OBDBody, func(m bus.Message) {
		if len(lines) < 3 {
			lines = append(lines, capture.Record{Time: m.Time, Frame: m.Frame, Origin: m.Origin}.String())
		}
	})
	sched.RunUntil(time.Second)
	want := []string{
		"10.484 0110 8 19 0D 00 3C 11 00 00 00",
		"20.500 04B0 8 00 00 00 00 00 00 00 00",
		"20.748 0110 8 35 0D 00 3C 12 00 00 00",
	}
	for i := range want {
		if i >= len(lines) || lines[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestGoldenGeneratorStream(t *testing.T) {
	gen, err := core.NewGenerator(core.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 4; i++ {
		sb.WriteString(gen.Next().String())
		sb.WriteString("\n")
	}
	want := "04C1 2 0C 41\n03B7 4 7D 66 DB 05\n0181 5 B7 80 A7 CA 38\n0118 3 6E B0 2A\n"
	if sb.String() != want {
		t.Fatalf("stream:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestGoldenFigure5Statistics(t *testing.T) {
	res := experiments.Figure5(1, 10000)
	if res.Frames != 10000 {
		t.Fatalf("frames = %d", res.Frames)
	}
	// Exact values for the fixed seed; any drift means the generator or
	// the accumulator changed.
	if got := fmt.Sprintf("%.2f", res.Overall); got != "126.81" {
		t.Fatalf("overall = %s, want 126.81", got)
	}
	if !res.Uniform {
		t.Fatal("uniformity verdict changed")
	}
}
