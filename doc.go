// Package repro is a from-scratch Go reproduction of "Fuzz Testing for
// Automotive Cyber-security" (Fowler, Bryans, Shaikh, Wooderson — DSN
// 2018): a CAN-bus fuzzer together with every substrate the paper's
// evaluation needs, all simulated deterministically on a virtual clock.
//
// The library is organised as small packages under internal/:
//
//   - clock: discrete-event virtual time
//   - can, bus: the CAN 2.0A protocol and a bit-accurate shared bus
//   - signal, isotp, uds: signal database and diagnostics stack
//   - ecu, engine, cluster, bcm, gateway, infotain: the simulated ECUs
//   - vehicle, testbench: the paper's two targets (car and 3-node bench)
//   - core, oracle, capture, analysis: the fuzzer, its test oracles,
//     traffic capture, and measurement tooling
//   - experiments: one harness per table and figure of the paper
//
// cmd/benchreport regenerates every table, figure and ablation in one
// report, pinned byte for byte by testdata/benchreport_golden.txt; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's numbers, each quoted from that report. The
// root bench_test.go only times the simulation (campaign and fleet).
package repro
