package core_test

import (
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ecu"
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

// Example_quickstart builds a two-node CAN bus, attaches the fuzzer with its
// full Table III space, and finds the hidden unlock command of a toy ECU in
// a few virtual minutes: a scheduler, a bus, one ECU with a parsing
// weakness, and a fuzz campaign with a network oracle.
func Example_quickstart() {
	// The toy ECU's undocumented activation command. The fuzzer is not
	// told about it.
	const (
		secretID   can.ID = 0x3C0
		secretByte byte   = 0x77
	)

	// Everything runs on a deterministic virtual clock: hours of fuzzing
	// finish in wall-clock seconds.
	sched := clock.New()
	b := bus.New(sched) // 500 kb/s CAN

	// A minimal ECU: replies with an acknowledgement when it sees its
	// secret activation byte on its command identifier.
	dut := ecu.New("dut", sched, b.Connect("dut"))
	dut.Handle(secretID, func(m bus.Message) {
		if m.Frame.Len >= 1 && m.Frame.Data[0] == secretByte {
			_ = dut.Send(can.MustNew(0x3C1, []byte{0xAC}))
		}
	})

	// The fuzzer: full Table III space, 1 ms pacing, seeded for
	// reproducibility, stopping at the first finding.
	campaign, err := core.NewCampaign(sched, b.Connect("fuzzer"),
		core.Config{Seed: 42},
		core.WithStopOnFinding(),
	)
	if err != nil {
		panic(err)
	}

	// Network oracle: fire when the acknowledgement appears.
	campaign.AddOracle(&oracle.Ack{
		OracleName: "activation-ack",
		Once:       true,
		Match: func(f can.Frame) bool {
			return f.ID == 0x3C1 && f.Len >= 1 && f.Data[0] == 0xAC
		},
	})

	// The full space does not fit in 64 bits, so SpaceSize saturates.
	fmt.Printf("search space: %d distinct frames\n", campaign.Generator().Config().SpaceSize())
	finding, ok := campaign.RunUntilFinding(24 * time.Hour)
	if !ok {
		fmt.Println("no finding within 24 virtual hours")
		return
	}
	fmt.Printf("found the hidden command after %v (%d frames)\n",
		finding.Elapsed.Round(time.Millisecond), finding.FramesSent)
	fmt.Println("frames transmitted just before the oracle fired:")
	for _, f := range finding.Recent {
		fmt.Println(" ", f)
	}
	// Output:
	// search space: 18446744073709551615 distinct frames
	// found the hidden command after 37m7.855s (2227855 frames)
	// frames transmitted just before the oracle fired:
	//   0224 8 AF 18 54 23 15 8F 22 9E
	//   062E 4 85 DF CE 3A
	//   00F5 4 6E DA 7F EA
	//   0035 1 28
	//   022D 6 95 70 FB 3D 4E 4C
	//   042E 2 20 E0
	//   018D 4 2A B8 09 2F
	//   0508 5 2C 65 8E 79 37
	//   0349 4 09 71 DF E3
	//   057D 0
	//   038A 0
	//   00A5 4 7A 3C E2 D5
	//   025B 4 3D 25 2D 35
	//   07D9 0
	//   00B0 7 60 D0 E3 BA 89 1E BB
	//   03C0 7 77 AF 7E 13 A6 C1 27
}
