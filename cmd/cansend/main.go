// Command cansend is the reproduction of the paper's PC lock/unlock app
// (Fig 13): it drives the bench-top testbed's head unit to lock or unlock
// the doors and reports the LED state, or injects a single raw frame.
//
// Usage:
//
//	cansend -cmd unlock            # app path: head unit relays 0x215
//	cansend -cmd lock
//	cansend -id 215 -data 205F01000001 20   # raw injection (hex)
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/can"
	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/testbench"
)

// logger is the shared structured stderr logger of the tool; run replaces
// it once the -log-level/-log-format flags are parsed.
var logger = telemetry.NewCLILogger(os.Stderr, "cansend", slog.LevelInfo)

func main() {
	if err := run(os.Args[1:]); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cansend", flag.ContinueOnError)
	cmd := fs.String("cmd", "", "app command: lock or unlock")
	rawID := fs.String("id", "", "raw injection: hex identifier (e.g. 215)")
	rawData := fs.String("data", "", "raw injection: hex payload (e.g. 205F01000001 20)")
	logFlags := telemetry.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := logFlags.Logger(os.Stderr, "cansend")
	if err != nil {
		return err
	}
	logger = l

	sched := clock.New()
	bench := testbench.New(sched, testbench.Config{AckUnlock: true})

	switch {
	case *cmd != "":
		var err error
		switch *cmd {
		case "unlock":
			err = bench.HeadUnit.AppUnlock(testbench.AppToken)
		case "lock":
			err = bench.HeadUnit.AppLock(testbench.AppToken)
		default:
			return fmt.Errorf("unknown command %q", *cmd)
		}
		if err != nil {
			return err
		}
	case *rawID != "":
		f, err := can.ParseFrame(*rawID + "#" + strings.ReplaceAll(*rawData, " ", ""))
		if err != nil {
			return err
		}
		if err := bench.AttachFuzzer("injector").Send(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need -cmd or -id (see -h)")
	}

	sched.RunUntil(100 * time.Millisecond)
	led := "OFF (locked)"
	if bench.BCM.Unlocked() {
		led = "ON (unlocked)"
	}
	fmt.Printf("lock LED: %s\n", led)
	if bench.HeadUnit.AckSeen() {
		fmt.Println("unlock acknowledgement observed on the bus")
	}
	return nil
}
