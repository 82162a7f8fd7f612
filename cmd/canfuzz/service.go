package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/campaignd"
	"repro/internal/campsrv"
	"repro/internal/fleet"
	"repro/internal/retry"
	"repro/internal/target"
)

// Distributed campaigns run through a canfuzzd service: `canfuzz -submit
// URL [-watch]` posts this invocation's campaign to it, any number of
// `canfuzz -worker URL` processes execute its trials, and `canfuzz -status
// URL` renders the service's /fleet.json as a one-line-per-campaign table.
// DESIGN §12 has the full protocol.

// submitOpts carries the -submit flags.
type submitOpts struct {
	priority    int
	maxInflight int
	watch       bool
	jsonOut     bool
	corpusOut   string
}

// rejectWorkerFlags refuses flag combinations that contradict worker mode:
// the campaign definition comes from the service, so every local campaign
// flag is a footgun that would silently be ignored.
func rejectWorkerFlags(fs *flag.FlagSet) error {
	allowed := map[string]bool{
		"worker": true, "worker-name": true, "token": true,
		"log-level": true, "log-format": true,
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if !allowed[f.Name] {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) > 0 {
		return fmt.Errorf("worker mode takes its campaign from the service; drop %s",
			strings.Join(bad, ", "))
	}
	return nil
}

// buildRuntime maps a fetched campaign spec onto a worker runtime: a
// factory closing over the same internal/target builder the in-process
// fleet uses, so results are byte-identical to local execution. The Worker
// calls this lazily — once per campaign, the first time the scheduler hands
// it one of that campaign's trials — and caches the result across leases;
// bench worlds carry a Reset hook, so the factory then runs once per
// campaign and every later trial resets that world in place.
func buildRuntime(spec campaignd.CampaignSpec) (campaignd.Runtime, error) {
	ts, cfg, err := target.FromCampaignSpec(spec)
	if err != nil {
		return campaignd.Runtime{}, err
	}
	return campaignd.Runtime{
		Factory: func(tsp fleet.TrialSpec) (*fleet.World, error) {
			tcfg := cfg
			tcfg.Seed = tsp.Seed
			world, _, werr := newWorld(ts, tcfg, nil, nil, nil)
			return world, werr
		},
		FleetCfg: spec.FleetConfig(),
	}, nil
}

// runWorker is `canfuzz -worker URL`: lease, execute and submit trials
// until the service says no work is left (it is shutting down). The worker
// is campaign-agnostic, building and caching one runtime per campaign it is
// handed trials from.
func runWorker(logger *slog.Logger, serverURL, name, token string) error {
	ctx, cancelSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSig()
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logger.Info("worker joined fleet", "name", name, "server", serverURL)
	w := &campaignd.Worker{
		Client: &campaignd.Client{Base: serverURL, Token: token},
		Name:   name,
		Build:  buildRuntime,
		Logger: logger,
	}
	return w.Run(ctx)
}

// runSubmit posts the campaign spec to the service and prints the
// assigned campaign ID. With -watch it instead polls until the campaign
// completes, writes the merged corpus to -corpus-out and prints only the
// final report (the exact bytes of /report.json with -json — identical to
// an in-process -json run — the human summary otherwise).
func runSubmit(ctx context.Context, logger *slog.Logger, baseURL, token string, spec campaignd.CampaignSpec, o submitOpts) error {
	cli := &campaignd.Client{Base: baseURL, Token: token}
	body, err := json.Marshal(campsrv.Submission{
		Spec: spec, Priority: o.priority, MaxInflight: o.maxInflight,
	})
	if err != nil {
		return err
	}
	raw, err := cli.API(http.MethodPost, "/campaigns", body, http.StatusCreated)
	if err != nil {
		return fmt.Errorf("submit to %s: %w", baseURL, err)
	}
	var v campsrv.CampaignView
	if err := json.Unmarshal(raw, &v); err != nil {
		return fmt.Errorf("submit response: %w", err)
	}
	logger.Info("campaign submitted", "campaign", v.ID, "state", v.State,
		"trials", v.Trials, "priority", v.Priority)
	if !o.watch {
		fmt.Println(v.ID)
		return nil
	}
	if err := watchCampaign(ctx, logger, cli, v.ID); err != nil {
		return err
	}
	return printRemoteReport(logger, cli, v.ID, o)
}

// getJSON fetches and decodes one JSON document of the service API.
func getJSON(cli *campaignd.Client, path string, v any) error {
	raw, err := cli.API(http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// watchCampaign polls the campaign until it completes.
func watchCampaign(ctx context.Context, logger *slog.Logger, cli *campaignd.Client, id string) error {
	lastDone := -1
	for {
		var d campsrv.CampaignDetail
		if err := getJSON(cli, "/campaigns/"+id, &d); err != nil {
			return err
		}
		switch d.State {
		case campsrv.StateCancelled:
			return fmt.Errorf("campaign %s was cancelled", id)
		case campsrv.StateDone:
			if d.Error != "" {
				return fmt.Errorf("campaign %s finished with a server-side defect: %s", id, d.Error)
			}
			return nil
		}
		if d.Progress.TrialsDone != lastDone {
			lastDone = d.Progress.TrialsDone
			logger.Info("campaign progress", "campaign", id, "state", d.State,
				"done", d.Progress.TrialsDone, "total", d.Progress.TrialsTotal,
				"findings", d.Progress.Findings,
				"eta", time.Duration(d.Progress.EtaSeconds*float64(time.Second)).Round(time.Second))
		}
		if err := retry.Sleep(ctx, time.Second); err != nil {
			return err
		}
	}
}

// printRemoteReport fetches /campaigns/{id}/report.json and writes its
// merged corpus to o.corpusOut when set. With o.jsonOut the exact server
// bytes go to stdout — byte-identical to an in-process fleet.Run -json
// report; otherwise the shared human summary is printed.
func printRemoteReport(logger *slog.Logger, cli *campaignd.Client, id string, o submitOpts) error {
	raw, err := cli.API(http.MethodGet, "/campaigns/"+id+"/report.json", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var rep fleet.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("report for %s: %w", id, err)
	}
	if o.corpusOut != "" {
		if err := writeCorpusFile(logger, o.corpusOut, rep.MergedCorpus); err != nil {
			return err
		}
	}
	if o.jsonOut {
		_, err := os.Stdout.Write(raw)
		return err
	}
	printFleetReport(&rep)
	return nil
}

// runStatus renders the service's /fleet.json as a table: one line per
// campaign with id, state, progress, ETA and findings — the quick
// operator check the dashboardless need.
func runStatus(baseURL, token string) error {
	var fleetView campsrv.FleetView
	if err := getJSON(&campaignd.Client{Base: baseURL, Token: token}, "/fleet.json", &fleetView); err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %5s  %11s  %8s  %8s\n",
		"ID", "STATE", "PRI", "TRIALS", "ETA", "FINDINGS")
	for _, c := range fleetView.Campaigns {
		eta := "-"
		if c.Progress.EtaSeconds > 0 {
			eta = time.Duration(c.Progress.EtaSeconds * float64(time.Second)).Round(time.Second).String()
		}
		fmt.Printf("%-8s %-10s %5d  %5d/%-5d  %8s  %8d\n",
			c.ID, c.State, c.Priority,
			c.Progress.TrialsDone, c.Progress.TrialsTotal, eta, c.Progress.Findings)
	}
	fmt.Printf("%d active, %d queued, %d trials in flight",
		fleetView.Active, fleetView.Queued, fleetView.Leased)
	if fleetView.ShuttingDown {
		fmt.Print(" (shutting down)")
	}
	fmt.Println()
	return nil
}
