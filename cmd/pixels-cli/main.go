// pixels-cli is the terminal Pixels-Rover: it talks to a running
// pixels-server to translate questions, submit queries at a service level,
// poll results, and view the cost report.
//
// Usage:
//
//	pixels-cli [-server URL] [-db NAME] <command> [args]
//
// Commands:
//
//	schemas                         show the schema browser
//	ask <question>                  translate a question to SQL
//	run <level> <sql>               submit SQL and wait for the result
//	nlrun <level> <question>        translate, submit and wait
//	status <query-id>               show a query's status block
//	cancel <query-id>               cancel a queued query
//	result <query-id>               show a query's result block
//	trace <query-id>                show a query's span waterfall (server needs -trace)
//	report                          per-level summary + recent queries
//	prices                          show the service-level price table
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/rover"
)

func main() {
	var (
		serverURL = flag.String("server", "http://localhost:8866", "query server URL")
		database  = flag.String("db", "tpch", "database")
		token     = flag.String("token", "", "bearer token")
		timeout   = flag.Duration("timeout", time.Minute, "wait timeout for run/nlrun")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	c := rover.NewClient(*serverURL)
	c.Token = *token

	switch args[0] {
	case "schemas":
		schemas, err := c.Schemas()
		check(err)
		for _, d := range schemas.Databases {
			fmt.Printf("%s\n", d.Name)
			for _, t := range d.Tables {
				cols := make([]string, len(t.Columns))
				for i, col := range t.Columns {
					cols[i] = col.Name + " " + col.Type
				}
				fmt.Printf("  %s (%d rows): %s\n", t.Name, t.Rows, strings.Join(cols, ", "))
			}
		}

	case "ask":
		need(args, 2, "ask <question>")
		tr, err := c.Translate(*database, strings.Join(args[1:], " "))
		check(err)
		fmt.Printf("-- %s (confidence %.2f)\n%s\n", tr.Translator, tr.Confidence, tr.SQL)

	case "run":
		need(args, 3, "run <level> <sql>")
		runAndPrint(c, *database, args[1], strings.Join(args[2:], " "), *timeout)

	case "nlrun":
		need(args, 3, "nlrun <level> <question>")
		tr, err := c.Translate(*database, strings.Join(args[2:], " "))
		check(err)
		fmt.Printf("-- translated by %s (confidence %.2f):\n%s\n\n", tr.Translator, tr.Confidence, tr.SQL)
		runAndPrint(c, *database, args[1], tr.SQL, *timeout)

	case "status":
		need(args, 2, "status <query-id>")
		info, err := c.StatusV1(args[1])
		check(err)
		fmt.Printf("%s: %s level=%s pending=%dms exec=%dms usedCF=%v cacheHit=%v %s\n",
			info.ID, info.Status, info.Level, info.PendingMs, info.ExecMs, info.UsedCF, info.CacheHit, info.Error)
		switch info.Status {
		case "queued":
			fmt.Printf("-- queue position %d of %d, deadline %s\n", info.QueuePosition, info.QueueDepth, info.Deadline)
		case "shed":
			fmt.Printf("-- shed (%s), retry after %dms\n", info.ShedReason, info.RetryAfterMs)
		}

	case "cancel":
		need(args, 2, "cancel <query-id>")
		check(c.CancelV1(args[1]))
		fmt.Printf("%s canceled\n", args[1])

	case "result":
		need(args, 2, "result <query-id>")
		res, err := c.ResultV1(args[1])
		check(err)
		printResult(res.Columns, res.Rows)
		fmt.Printf("-- scanned %d bytes (cache %d hit / %d miss), list price $%.9f, resource cost $%.9f\n",
			res.BytesScanned, res.CacheHits, res.CacheMisses, res.ListPrice, res.ResourceCost)

	case "trace":
		need(args, 2, "trace <query-id>")
		tr, err := c.TraceV1(args[1])
		check(err)
		if tr.Root == nil {
			log.Fatalf("query %s has no trace", args[1])
		}
		printSpan(tr.Root, tr.Root.StartUnix, 0)

	case "report":
		sum, err := c.ReportSummary()
		check(err)
		fmt.Printf("%-14s %8s %8s %8s %14s %14s %12s %12s\n",
			"level", "queries", "finished", "failed", "list $", "resource $", "avg pending", "max pending")
		for _, s := range sum {
			fmt.Printf("%-14s %8d %8d %8d %14.9f %14.9f %11dms %11dms\n",
				s.Level, s.Queries, s.Finished, s.Failed, s.ListPrice, s.ResourceCost,
				s.AvgPendingMs, s.MaxPendingMs)
		}
		from, to := time.Now().Add(-time.Hour), time.Now()
		recent := 0
		for cursor := ""; ; {
			page, err := c.ReportQueriesPage(from, to, 1000, cursor)
			check(err)
			recent += len(page.Queries)
			if cursor = page.NextCursor; cursor == "" {
				break
			}
		}
		fmt.Printf("\nrecent queries: %d in the last hour\n", recent)

	case "prices":
		pb, err := c.PriceBook()
		check(err)
		for _, l := range pb.Levels {
			fmt.Printf("%-14s $%.2f/TB  (%s)\n", l.Level, l.USDPerTB, l.Guarantee)
		}
		fmt.Printf("CF vs VM unit price ratio: %.1fx\n", pb.CFvsVMUnitPriceRatio)

	default:
		log.Fatalf("unknown command %q", args[0])
	}
}

func runAndPrint(c *rover.Client, db, level, sqlText string, timeout time.Duration) {
	resp, err := c.SubmitV1(db, sqlText, level, 0, 0)
	if shed, ok := rover.IsShed(err); ok {
		log.Fatalf("query %s shed (%s); retry after %s", shed.QueryID, shed.ShedReason, shed.RetryAfter)
	}
	check(err)
	fmt.Printf("-- submitted %s at %s\n", resp.ID, resp.Level)
	if resp.Status == "queued" {
		fmt.Printf("-- queued at position %d of %d\n", resp.QueuePosition, resp.QueueDepth)
	}
	info, err := c.WaitTerminal(resp.ID, timeout)
	check(err)
	switch info.Status {
	case "finished":
	case "shed":
		log.Fatalf("query %s shed while queued (%s); retry after %dms", info.ID, info.ShedReason, info.RetryAfterMs)
	default:
		log.Fatalf("query %s: %s", info.Status, info.Error)
	}
	res, err := c.ResultV1(resp.ID)
	check(err)
	printResult(res.Columns, res.Rows)
	fmt.Printf("-- pending %dms, exec %dms, scanned %d bytes, list price $%.9f\n",
		res.PendingMs, res.ExecMs, res.BytesScanned, res.ListPrice)
}

// printSpan renders one span of the trace waterfall: indentation shows
// nesting, the +offset column is the span's start relative to the query
// root, and events (result-cache hits) print as bullet
// lines under their span.
func printSpan(s *obs.SpanData, rootStart int64, depth int) {
	indent := strings.Repeat("  ", depth)
	line := fmt.Sprintf("%s%s", indent, s.Name)
	fmt.Printf("%-44s +%9.3fms %10.3fms%s\n", line,
		float64(s.StartUnix-rootStart)/1000, float64(s.DurationUs)/1000, attrSummary(s.Attrs))
	for _, ev := range s.Events {
		fmt.Printf("%s  • %s @+%.3fms%s\n", indent, ev.Name, float64(ev.AtUs)/1000, attrSummary(ev.Attr))
	}
	for _, c := range s.Children {
		printSpan(c, rootStart, depth+1)
	}
}

// attrSummary renders span attributes as "  k=v k=v" in sorted key order.
func attrSummary(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, attrs[k])
	}
	return " " + b.String()
}

func printResult(columns []string, rows [][]string) {
	fmt.Println(strings.Join(columns, " | "))
	fmt.Println(strings.Repeat("-", len(strings.Join(columns, " | "))))
	for i, row := range rows {
		if i == 50 {
			fmt.Printf("... (%d more rows)\n", len(rows)-50)
			break
		}
		fmt.Println(strings.Join(row, " | "))
	}
}

func need(args []string, n int, usage string) {
	if len(args) < n {
		log.Fatalf("usage: pixels-cli %s", usage)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
