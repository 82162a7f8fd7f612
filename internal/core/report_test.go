package core

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/oracle"
)

func TestBuildReportCapturesCampaignState(t *testing.T) {
	s, b, c := rig(t, Config{Seed: 42, TargetIDs: []can.ID{0x100}, LenMin: 0, LenMax: 0},
		WithStopOnFinding())
	echo := b.Connect("echo")
	echo.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == 0x100 {
			echo.Send(can.MustNew(0x200, nil))
		}
	})
	c.AddOracle(&oracle.Ack{Match: func(f can.Frame) bool { return f.ID == 0x200 }})
	c.Start()
	s.RunUntil(time.Second)

	r := c.BuildReport()
	if r.Seed != 42 || r.Mode != "random" {
		t.Fatalf("report header = %+v", r)
	}
	if r.FramesSent == 0 || r.DistinctIDs != 1 {
		t.Fatalf("counters = %+v", r)
	}
	if len(r.Findings) != 1 {
		t.Fatalf("findings = %d", len(r.Findings))
	}
	f := r.Findings[0]
	if f.Oracle != "ack" || f.FramesSent == 0 || len(f.RecentFrames) == 0 {
		t.Fatalf("finding = %+v", f)
	}
}

func TestReportJSONRoundTrips(t *testing.T) {
	_, _, c := rig(t, Config{Seed: 1})
	c.RunFor(50 * time.Millisecond)
	var sb strings.Builder
	if err := c.BuildReport().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatalf("report JSON invalid: %v\n%s", err, sb.String())
	}
	if back.FramesSent != c.FramesSent() {
		t.Fatalf("framesSent = %d, want %d", back.FramesSent, c.FramesSent())
	}
}

func TestParseConfigJSON(t *testing.T) {
	doc := `{
		"seed": 7,
		"mode": "mutate",
		"targetIds": [533],
		"mutateBits": 2,
		"mutateId": true,
		"intervalMicros": 2000,
		"corpus": ["215#205F0100000120", "110#610D"]
	}`
	cfg, err := ParseConfigJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Mode != ModeMutate || cfg.MutateBits != 2 || !cfg.MutateID {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Interval != 2*time.Millisecond {
		t.Fatalf("interval = %v", cfg.Interval)
	}
	if len(cfg.TargetIDs) != 1 || cfg.TargetIDs[0] != 533 {
		t.Fatalf("targets = %v", cfg.TargetIDs)
	}
	if len(cfg.Corpus) != 2 || cfg.Corpus[0].ID != 0x215 || cfg.Corpus[0].Len != 7 {
		t.Fatalf("corpus = %v", cfg.Corpus)
	}
	if cfg.Corpus[1].Data[0] != 0x61 || cfg.Corpus[1].Data[1] != 0x0D {
		t.Fatalf("corpus[1] = %v", cfg.Corpus[1])
	}
}

func TestParseConfigJSONDefaults(t *testing.T) {
	cfg, err := ParseConfigJSON(strings.NewReader(`{"seed": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != ModeRandom {
		t.Fatalf("mode = %v", cfg.Mode)
	}
	// The parsed config must produce a working generator with defaults.
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Config().IDMax != can.MaxID || g.Config().Interval != time.Millisecond {
		t.Fatalf("defaults = %+v", g.Config())
	}
}

func TestConfigToJSONRoundTrip(t *testing.T) {
	// ToJSON is the inverse of ToConfig — the property the distributed
	// campaign spec depends on: the coordinator serialises the CLI-built
	// Config, workers rebuild their generators from exactly those bytes.
	frame, err := ParseCorpusFrame("215#205F0100000120")
	if err != nil {
		t.Fatal(err)
	}
	orig := Config{
		Seed: 7, Mode: ModeMutate,
		IDMin: 0x100, IDMax: 0x300,
		TargetIDs: []can.ID{0x215},
		LenMin:    1, LenMax: 8,
		ByteMin: 0, ByteMax: 255,
		Interval:   2 * time.Millisecond,
		Corpus:     []can.Frame{frame},
		MutateBits: 2, MutateID: true,
	}
	back, err := orig.ToJSON().ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != orig.Seed || back.Mode != orig.Mode || back.Interval != orig.Interval ||
		back.IDMin != orig.IDMin || back.IDMax != orig.IDMax ||
		back.MutateBits != orig.MutateBits || back.MutateID != orig.MutateID {
		t.Fatalf("round trip diverged:\norig: %+v\nback: %+v", orig, back)
	}
	if len(back.TargetIDs) != 1 || back.TargetIDs[0] != 0x215 {
		t.Fatalf("target ids = %v", back.TargetIDs)
	}
	if len(back.Corpus) != 1 || back.Corpus[0] != frame {
		t.Fatalf("corpus = %v", back.Corpus)
	}
	// The zero mode stays empty on the wire and parses back to random.
	if cj := (Config{Seed: 1}).ToJSON(); cj.Mode != "" {
		t.Fatalf("zero mode serialised as %q", cj.Mode)
	}
}

// TestConfigToJSONKeepsRemoteFrames: a remote corpus frame crosses the
// wire as "ID#R<dlc>" and comes back remote, so a worker's generator drops
// it exactly as the local one does, instead of mutating a zero payload.
func TestConfigToJSONKeepsRemoteFrames(t *testing.T) {
	remote, err := can.NewRemote(0x215, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := can.MustNew(0x110, []byte{0x61, 0x0D})
	cj := Config{Mode: ModeMutate, Corpus: []can.Frame{remote, data}}.ToJSON()
	if want := []string{"215#R3", "110#610D"}; strings.Join(cj.Corpus, ",") != strings.Join(want, ",") {
		t.Fatalf("wire corpus = %q, want %q", cj.Corpus, want)
	}
	back, err := cj.ToConfig()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Corpus) != 2 || back.Corpus[0] != remote || !back.Corpus[0].Remote || back.Corpus[1] != data {
		t.Fatalf("corpus = %v", back.Corpus)
	}
	if _, err := ParseCorpusFrame("215#R3"); err == nil {
		t.Fatal("ParseCorpusFrame accepted a remote frame")
	}
}

func TestParseConfigJSONErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"seed": 1, "bogus": true}`,
		"bad mode":        `{"mode": "explode"}`,
		"bad corpus":      `{"mode": "mutate", "corpus": ["nohash"]}`,
		"bad corpus id":   `{"mode": "mutate", "corpus": ["zz#00"]}`,
		"bad corpus data": `{"mode": "mutate", "corpus": ["215#0"]}`,
		"long corpus":     `{"mode": "mutate", "corpus": ["215#000102030405060708"]}`,
		"wrapped id":      `{"mode": "mutate", "corpus": ["10215#20"]}`,
		"remote only":     `{"mode": "mutate", "corpus": ["215#R3"]}`,
		"mutate no corp":  `{"mode": "mutate"}`,
		"invalid ranges":  `{"lenMin": 5, "lenMax": 3}`,
	}
	for name, doc := range cases {
		if _, err := ParseConfigJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %s", name, doc)
		}
	}
}

func FuzzParseConfigJSON(f *testing.F) {
	f.Add(`{"seed": 7, "mode": "sweep", "sweepLen": 1}`)
	f.Add(`{"targetIds": [533], "corpus": ["215#20"]}`)
	f.Fuzz(func(t *testing.T, doc string) {
		cfg, err := ParseConfigJSON(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Accepted configs must build a working generator.
		if _, err := NewGenerator(cfg); err != nil {
			t.Fatalf("accepted config fails generator: %v", err)
		}
	})
}
