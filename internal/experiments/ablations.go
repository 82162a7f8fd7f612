package experiments

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/ids"
	"repro/internal/oracle"
	"repro/internal/signal"
	"repro/internal/testbench"
	"repro/internal/vehicle"
)

// Ablation benchmarks for the design choices DESIGN.md calls out. Each is
// an extension of the paper's discussion section, quantified.

// TargetedVsBlindResult compares the §VII recommendation ("fuzz testing in
// a specific message space, close to known messages") against the blind
// full-space fuzz.
type TargetedVsBlindResult struct {
	// Blind holds full-ID-space times to unlock.
	Blind analysis.RunStats
	// Targeted holds times when fuzzing only the observed command ID.
	Targeted analysis.RunStats
	// SpeedupMean is Blind.Mean / Targeted.Mean.
	SpeedupMean float64
}

// AblationTargetedVsBlind measures the speedup from restricting the fuzz
// space to the command identifier observed by traffic capture. Both arms
// run seeds baseSeed+i through Table5's row runner; timed-out runs are
// dropped from the times.
func AblationTargetedVsBlind(baseSeed int64, runs int, maxPerRun time.Duration) TargetedVsBlindResult {
	blind, _ := runUnlockRow(bcm.CheckByteOnly, runs, maxPerRun, func(i int) core.Config {
		return core.Config{Seed: baseSeed + int64(i)}
	})
	targeted, _ := runUnlockRow(bcm.CheckByteOnly, runs, maxPerRun, func(i int) core.Config {
		return core.Config{Seed: baseSeed + int64(i), TargetIDs: []can.ID{signal.IDBodyCommand}}
	})
	res := TargetedVsBlindResult{Blind: blind.Stats, Targeted: targeted.Stats}
	if m := res.Targeted.Mean(); m > 0 {
		res.SpeedupMean = float64(res.Blind.Mean()) / float64(m)
	}
	return res
}

// AblationOracleStrictness extends Table V with the paper's prediction:
// "If the change had been to check for a two byte value the time increase
// would have been even greater." It returns one row per parser variant
// including CheckTwoBytes.
//
// The runs fuzz the command identifier only (targeted mode): blind
// two-byte hunting needs ~10^9 frames per hit, which is exactly the
// paper's combinatorial-explosion point, and targeting keeps the relative
// comparison measurable. Expected frame-count ratios in targeted mode:
// byte-only 1x, +length ~8x, +source-byte ~2048x.
func AblationOracleStrictness(baseSeed int64, runs int, maxPerRun time.Duration) []Table5Row {
	variants := []bcm.CheckMode{bcm.CheckByteOnly, bcm.CheckByteAndLength, bcm.CheckTwoBytes}
	rows := make([]Table5Row, 0, len(variants))
	for _, check := range variants {
		row, _ := runUnlockRow(check, runs, maxPerRun, func(i int) core.Config {
			return core.Config{
				Seed:      baseSeed + int64(i),
				TargetIDs: []can.ID{signal.IDBodyCommand},
			}
		})
		rows = append(rows, row)
	}
	return rows
}

// PacingResult measures one transmission interval.
type PacingResult struct {
	// Interval is the frame period.
	Interval time.Duration
	// TimeToUnlock is the virtual unlock time (0 if timed out).
	TimeToUnlock time.Duration
	// FramesSent is the fuzz frame count at unlock.
	FramesSent uint64
	// BusLoad is the bench bus utilisation during the run.
	BusLoad float64
}

// AblationPacing measures how the transmission interval (Table III "Rate")
// trades wall-clock against bus load. The frames-to-unlock count is rate
// independent; the time scales with the interval and the load inversely.
func AblationPacing(seed int64, intervals []time.Duration, maxPerRun time.Duration) []PacingResult {
	out := make([]PacingResult, 0, len(intervals))
	for _, iv := range intervals {
		b := unlockExperiment(bcm.CheckByteOnly, core.Config{Seed: seed, Interval: iv})
		r := PacingResult{Interval: iv}
		if f, ok := b.World.Campaign.RunUntilFinding(maxPerRun); ok {
			r.TimeToUnlock = f.Elapsed
			r.FramesSent = b.World.Campaign.FramesSent()
		}
		r.BusLoad = b.Bench.Bus.Load()
		out = append(out, r)
	}
	return out
}

// GatewayResult compares unlock-fuzzing through a legacy forward-all
// gateway against an allow-list gateway.
type GatewayResult struct {
	// ForwardAllUnlocked reports whether the attack succeeded through the
	// legacy gateway.
	ForwardAllUnlocked bool
	// ForwardAllTime is the time to unlock through the legacy gateway.
	ForwardAllTime time.Duration
	// AllowListUnlocked reports whether the attack succeeded through the
	// filtering gateway (expected false).
	AllowListUnlocked bool
	// AllowListBlocked is the number of frames the filtering gateway
	// dropped.
	AllowListBlocked uint64
}

// AblationGateway quantifies the §VII protection-measures discussion: an
// allow-list gateway between the OBD-exposed powertrain bus and the body
// bus defeats the blind unlock fuzz entirely.
func AblationGateway(seed int64, maxDur time.Duration) GatewayResult {
	var res GatewayResult

	run := func(allowList bool) (bool, time.Duration, uint64) {
		sched := clock.New()
		v := vehicle.New(sched, vehicle.Config{Seed: seed, BCMAckUnlock: true})
		if allowList {
			v.Gateway.SetPolicy(gateway.AToB, gateway.AllowList)
			v.Gateway.Allow(gateway.AToB, signal.IDEngineData, signal.IDWheelSpeeds,
				signal.IDVehicleMotion, signal.IDTransmission)
		}
		port := v.AttachOBD(vehicle.OBDPowertrain, "fuzzer")
		campaign, err := core.NewCampaign(sched, port, core.Config{Seed: seed},
			core.WithStopOnFinding())
		if err != nil {
			panic(err)
		}
		campaign.AddOracle(oracle.Physical("bcm-unlock", 10*time.Millisecond,
			v.BCM.Unlocked, false, "doors unlocked"))
		finding, ok := campaign.RunUntilFinding(maxDur)
		blocked := v.Gateway.Stats(gateway.AToB).Blocked
		if !ok {
			return false, 0, blocked
		}
		return true, finding.Elapsed, blocked
	}

	res.ForwardAllUnlocked, res.ForwardAllTime, _ = run(false)
	res.AllowListUnlocked, _, res.AllowListBlocked = run(true)
	return res
}

// FDTransferResult compares moving a bulk payload over classic CAN versus
// CAN FD with bit-rate switching — the quantitative side of the paper's
// §VII FD future-work item.
type FDTransferResult struct {
	// PayloadBytes is the transferred volume.
	PayloadBytes int
	// ClassicTime is the wire time split across 8-byte classic frames at
	// 500 kb/s.
	ClassicTime time.Duration
	// FDTime is the wire time over 64-byte BRS FD frames at 500 kb/s
	// arbitration / 2 Mb/s data rate.
	FDTime time.Duration
	// Speedup is ClassicTime / FDTime.
	Speedup float64
}

// AblationCANFD computes the FD bulk-transfer advantage for a payload
// volume (rounded up to whole frames).
func AblationCANFD(payloadBytes int) FDTransferResult {
	res := FDTransferResult{PayloadBytes: payloadBytes}
	chunk := make([]byte, can.MaxDataLen)
	for i := range chunk {
		chunk[i] = byte(i * 37) // representative mixed content
	}
	classicFrames := (payloadBytes + can.MaxDataLen - 1) / can.MaxDataLen
	f := can.MustNew(0x100, chunk)
	perClassic := time.Duration(can.WireBitsWithIFS(f)) * time.Second / 500_000
	res.ClassicTime = time.Duration(classicFrames) * perClassic

	fdChunk := make([]byte, can.MaxFDDataLen)
	copy(fdChunk, chunk)
	fdFrames := (payloadBytes + can.MaxFDDataLen - 1) / can.MaxFDDataLen
	fd := can.MustNewFD(0x100, fdChunk, true)
	perFD := can.FDWireTime(fd, 500_000, 2_000_000)
	res.FDTime = time.Duration(fdFrames) * perFD

	if res.FDTime > 0 {
		res.Speedup = float64(res.ClassicTime) / float64(res.FDTime)
	}
	return res
}

// DataLinkResult summarises a bit-level fuzzing run against a victim node.
type DataLinkResult struct {
	// Injected counts corrupted sequences transmitted.
	Injected uint64
	// ErrorFrames counts protocol violations signalled on the bus.
	ErrorFrames uint64
	// StillValid counts flipped sequences that survived decoding.
	StillValid uint64
	// VictimErrorPassive reports whether the victim left error-active.
	VictimErrorPassive bool
	// VictimREC is the victim's final receive error counter.
	VictimREC int
}

// AblationDataLinkFuzz runs the §VII bit-level fuzz for dur against a
// single victim node, with the attacker resetting its own controller (as
// malicious hardware does).
func AblationDataLinkFuzz(seed int64, dur time.Duration) DataLinkResult {
	sched := clock.New()
	b := bus.New(sched)
	victim := b.Connect("victim")
	victim.SetReceiver(func(bus.Message) {})
	port := b.Connect("bitfuzzer")
	bf := core.NewBitFuzzer(sched, port, core.BitFuzzConfig{Seed: seed})
	bf.Start()
	reset := sched.Every(25*time.Millisecond, port.ResetErrors)
	sched.RunUntil(sched.Now() + dur)
	bf.Stop()
	reset.Stop()

	st := bf.Stats()
	_, rec := victim.ErrorCounters()
	return DataLinkResult{
		Injected:           st.Injected,
		ErrorFrames:        st.ErrorFrames,
		StillValid:         st.Delivered,
		VictimErrorPassive: victim.State() != bus.ErrorActive,
		VictimREC:          rec,
	}
}

// IDSResult summarises the intrusion-detection ablation.
type IDSResult struct {
	// FalsePositives counts alerts during a long fuzz-free window.
	FalsePositives int
	// DetectionLatency is how long after the fuzzer started the IDS armed
	// its intrusion state.
	DetectionLatency time.Duration
	// FramesBeforeDetection counts fuzz frames sent before detection.
	FramesBeforeDetection uint64
	// KnownIDs is the identifier population learned in training.
	KnownIDs int
}

// AblationIDS measures a frequency-anomaly intrusion detector on the
// vehicle's body bus: zero false positives over a quiet minute, then
// detection latency once blind fuzzing starts — the defender's side of the
// §VII protection-measures question.
func AblationIDS(seed int64) IDSResult {
	sched := clock.New()
	v := vehicle.New(sched, vehicle.Config{Seed: seed})
	det := ids.New(sched, ids.Config{})
	v.TapOBD(vehicle.OBDBody, det.Observe)

	// Quiet period: training plus a fuzz-free observation minute.
	sched.RunUntil(66 * time.Second)
	res := IDSResult{
		FalsePositives: len(det.Alerts()),
		KnownIDs:       det.KnownIDs(),
	}

	campaign, err := core.NewCampaign(sched, v.AttachOBD(vehicle.OBDBody, "fuzzer"),
		core.Config{Seed: seed})
	if err != nil {
		panic(err)
	}
	start := sched.Now()
	campaign.Start()
	deadline := start + time.Minute
	for sched.Now() < deadline && !det.IntrusionDetected() {
		sched.RunFor(time.Millisecond)
	}
	campaign.Stop()
	if det.IntrusionDetected() {
		res.DetectionLatency = sched.Now() - start
		res.FramesBeforeDetection = campaign.FramesSent()
	}
	return res
}

// AuthResult compares the blind fuzz against the plain and MAC-hardened
// command parsers.
type AuthResult struct {
	// PlainUnlocked reports whether the fuzzer opened the unhardened BCM.
	PlainUnlocked bool
	// PlainTime is the time to unlock the unhardened BCM.
	PlainTime time.Duration
	// AuthUnlocked reports whether the fuzzer opened the MAC-checking BCM
	// within the budget (expected false: one MAC byte multiplies the
	// blind space to ~10^9 frames per expected hit).
	AuthUnlocked bool
	// AuthFramesTried counts fuzz frames sent against the hardened BCM.
	AuthFramesTried uint64
	// LegitWorks reports whether the paired app still unlocks the hardened
	// BCM (it must: security that breaks the feature is no security).
	LegitWorks bool
}

// AblationAuthentication quantifies the §VII "additions to ECU software to
// mitigate cyber attacks": a truncated-MAC command check. budget bounds
// the fuzzing time against the hardened variant.
func AblationAuthentication(seed int64, budget time.Duration) AuthResult {
	var res AuthResult

	plain := unlockExperiment(bcm.CheckByteOnly, core.Config{Seed: seed}).World.Campaign
	if f, ok := plain.RunUntilFinding(12 * time.Hour); ok {
		res.PlainTime, res.PlainUnlocked = f.Elapsed, true
	}

	hardened := unlockExperiment(bcm.CheckAuthenticated, core.Config{Seed: seed}).World.Campaign
	_, res.AuthUnlocked = hardened.RunUntilFinding(budget)
	res.AuthFramesTried = hardened.FramesSent()

	// The legitimate path must still work when the head unit stamps MACs.
	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{Check: bcm.CheckAuthenticated})
	bench.HeadUnit.SetAuthenticate(true)
	if err := bench.HeadUnit.AppUnlock(testbench.AppToken); err == nil {
		sched.RunFor(100 * time.Millisecond)
		res.LegitWorks = bench.BCM.Unlocked()
	}
	return res
}
