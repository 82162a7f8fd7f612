package core_test

import (
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/oracle"
)

// Example runs the smallest complete fuzz campaign: a toy ECU with a
// hidden activation command, found by random fuzzing with an ACK oracle.
func Example() {
	sched := clock.New()
	b := bus.New(sched)

	// The system under test answers 0x42 on identifier 0x0C0 with an ACK.
	sut := b.Connect("sut")
	sut.SetReceiver(func(m bus.Message) {
		if m.Frame.ID == 0x0C0 && m.Frame.Len >= 1 && m.Frame.Data[0] == 0x42 {
			_ = sut.Send(can.MustNew(0x0C1, []byte{0xAC}))
		}
	})

	campaign, err := core.NewCampaign(sched, b.Connect("fuzzer"),
		core.Config{Seed: 1, TargetIDs: []can.ID{0x0C0}, LenMin: 1, LenMax: 1},
		core.WithStopOnFinding())
	if err != nil {
		panic(err)
	}
	campaign.AddOracle(&oracle.Ack{Once: true, Match: func(f can.Frame) bool {
		return f.ID == 0x0C1
	}})

	finding, ok := campaign.RunUntilFinding(time.Hour)
	fmt.Println("found:", ok)
	fmt.Println("oracle:", finding.Verdict.Oracle)
	// Output:
	// found: true
	// oracle: ack
}

// ExampleGenerator shows deterministic frame generation from the full
// Table III parameter space.
func ExampleGenerator() {
	gen, err := core.NewGenerator(core.Config{Seed: 42})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		fmt.Println(gen.Next())
	}
	// Output:
	// 04C1 2 0C 41
	// 03B7 4 7D 66 DB 05
	// 0181 5 B7 80 A7 CA 38
}
