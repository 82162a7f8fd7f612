package cluster_test

import (
	"fmt"
	"time"

	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ecu"
	"repro/internal/isotp"
	"repro/internal/signal"
	"repro/internal/uds"
)

// Example reproduces the paper's instrument-cluster bench experiment (§VI,
// Fig 9): fuzz a bench-mounted cluster until it shows MILs, sounds
// warnings, and latches a persistent "CRASH" display that a power cycle
// cannot clear — then clear it the way a service tool would, through a
// secured UDS write.
func Example() {
	sched := clock.New()
	b := bus.New(sched)

	// The bench: one instrument cluster with its UDS diagnostic server.
	clusterECU := ecu.New("cluster", sched, b.Connect("cluster"))
	c := cluster.New(clusterECU)
	var server *uds.Server
	serverEP := isotp.NewEndpoint(sched, clusterECU.Send,
		signal.IDDiagResponse, signal.IDDiagRequest,
		isotp.Config{}, func(req []byte) { server.HandleRequest(req) })
	server = uds.NewServer(clusterECU, serverEP, uds.ServerConfig{DIDs: c.DIDEntries()})
	clusterECU.Handle(signal.IDDiagRequest, serverEP.HandleFrame)

	// The fuzzer with a crash probe (XCP-style internal state oracle).
	campaign, err := core.NewCampaign(sched, b.Connect("fuzzer"),
		core.Config{Seed: 9}, core.WithStopOnFinding())
	if err != nil {
		panic(err)
	}
	campaign.AddOracle(c.CrashOracle())

	finding, ok := campaign.RunUntilFinding(2 * time.Hour)
	if !ok {
		fmt.Println("cluster survived 2 virtual hours of fuzzing")
		return
	}
	fmt.Printf("cluster crashed after %v (%d frames)\n",
		finding.Elapsed.Round(time.Millisecond), finding.FramesSent)
	fmt.Printf("MILs lit: %v, warning chimes: %d\n", clusterECU.MILs(), clusterECU.Chimes())

	// The paper's observation: power cycling clears the MILs, not the crash.
	clusterECU.PowerCycle()
	sched.RunFor(time.Second)
	fmt.Printf("after power cycle: MILs %v, crash persists: %v\n",
		clusterECU.MILs(), c.Crashed())

	// Extension beyond the paper: the service-tool fix. The crash flag
	// lives behind a secured UDS DID: extended session + seed/key unlock,
	// then write 0.
	port := b.Connect("service-tool")
	var client *uds.Client
	ep := isotp.NewEndpoint(sched, port.Send,
		signal.IDDiagRequest, signal.IDDiagResponse,
		isotp.Config{}, func(resp []byte) { client.HandleResponse(resp) })
	client = uds.NewClient(sched, ep)
	port.SetReceiver(ep.HandleFrame)

	keyFromSeed := func(seed []byte) []byte {
		key := make([]byte, len(seed))
		for i, s := range seed {
			key[i] = s ^ 0x5A // the (deliberately weak) OEM algorithm
		}
		return key
	}
	client.ChangeSession(uds.SessionExtended, func(_ []byte, err error) {
		if err != nil {
			fmt.Println("session change failed:", err)
			return
		}
		client.Unlock(0x01, keyFromSeed, func(_ []byte, err error) {
			if err != nil {
				fmt.Println("security access failed:", err)
				return
			}
			client.WriteDID(cluster.DIDCrashFlag, []byte{0}, func(_ []byte, err error) {
				if err != nil {
					fmt.Println("write failed:", err)
				}
			})
		})
	})
	sched.RunFor(2 * time.Second)
	fmt.Printf("after UDS service fix: crash persists: %v\n", c.Crashed())
	// Output:
	// cluster crashed after 25s (24999 frames)
	// MILs lit: [CHECK-VEHICLE ENGINE-COMM IMPLAUSIBLE-DATA], warning chimes: 186
	// after power cycle: MILs [], crash persists: true
	// after UDS service fix: crash persists: false
}
