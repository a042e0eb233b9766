// Interactive analytics (the demo's Use Case 1, Sec. IV-A): a scripted
// Pixels-Rover session against the Query Server REST API — browse schemas,
// ask natural-language questions, inspect/edit the translated SQL, submit
// at a chosen service level, and check the status-and-result blocks.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	pixelsdb "repro"
	"repro/internal/rover"
)

func main() {
	db, err := pixelsdb.Open(pixelsdb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadSampleData("tpch", 0.01); err != nil {
		log.Fatal(err)
	}

	// Stand up the Query Server and a Rover client against it.
	ts := httptest.NewServer(db.Handler("tpch", ""))
	defer ts.Close()
	client := rover.NewClient(ts.URL)
	sess := rover.NewSession(client, "tpch")

	// Step 0: log in and browse the authorized schemas.
	schemas, err := client.Schemas()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Schema browser:")
	for _, d := range schemas.Databases {
		for _, t := range d.Tables {
			fmt.Printf("  %s.%s (%d rows, %d cols)\n", d.Name, t.Name, t.Rows, len(t.Columns))
		}
	}

	// Step 1: query translation.
	questions := []struct {
		text  string
		level string
	}{
		{"How many orders are there?", "immediate"},
		{"Number of customers per market segment", "relaxed"},
		{"Top 5 customers by account balance", "immediate"},
		{"What is the total revenue of lineitems shipped in 1995?", "best-of-effort"},
	}
	for _, qa := range questions {
		it, err := sess.Ask(qa.text)
		if err != nil {
			fmt.Printf("\nQ: %s\n  (translation failed: %v)\n", qa.text, err)
			continue
		}
		fmt.Printf("\nQ: %s\n  SQL [%s, conf %.2f]: %s\n", qa.text, it.Translator, it.Confidence, it.SQL)

		// Step 2: submit with a preferred service level (Fig. 4's form).
		resp, err := sess.SubmitLast(qa.level, 100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  submitted %s at %s\n", resp.ID, resp.Level)

		// Step 3: check query status and result.
		info, err := client.WaitTerminal(resp.ID, 10*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  status=%s pending=%dms exec=%dms usedCF=%v\n",
			info.Status, info.PendingMs, info.ExecMs, info.UsedCF)
		if info.Status == "finished" {
			res, err := client.ResultV1(resp.ID)
			if err != nil {
				log.Fatal(err)
			}
			for i, row := range res.Rows {
				if i == 5 {
					fmt.Printf("    ... (%d more rows)\n", len(res.Rows)-5)
					break
				}
				fmt.Printf("    %v\n", row)
			}
			fmt.Printf("  scanned %d bytes, list price $%.9f\n", res.BytesScanned, res.ListPrice)
		}
	}

	// The edit flow: correct a translated query before submitting.
	it, err := sess.Ask("average account balance of customers")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ: average account balance of customers\n  SQL: %s\n", it.SQL)
	if err := sess.Edit("SELECT c_mktsegment, AVG(c_acctbal) AS avg_bal FROM customer GROUP BY c_mktsegment ORDER BY avg_bal DESC"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  (edited in the code block to add a segment breakdown)")
	resp, err := sess.SubmitLast("immediate", 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.WaitTerminal(resp.ID, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	res, err := client.ResultV1(resp.ID)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("    %v\n", row)
	}
}
