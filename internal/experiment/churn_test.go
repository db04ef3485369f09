package experiment

import "testing"

func TestChurnExperiment(t *testing.T) {
	res, err := RunChurn(bg, RunConfig{Seed: 101}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 || len(res.Rows) != 3 {
		t.Fatalf("runs=%d rows=%d", res.Runs, len(res.Rows))
	}
	rows := map[string]ChurnRow{}
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	if rows["no-reshaping"].Reshapes != 0 {
		t.Error("no-reshaping variant reshaped")
	}
	if rows["condition-I+II"].Reshapes < rows["condition-I"].Reshapes {
		t.Error("Condition II should add reshapes on top of Condition I")
	}
	for name, r := range rows {
		if r.RDRel.Mean <= 0 {
			t.Errorf("%s: RD_rel %.3f not positive", name, r.RDRel.Mean)
		}
	}
	if res.Events.Mean <= 0 {
		t.Error("no churn events recorded")
	}
	if res.Render() == "" {
		t.Error("Render empty")
	}
}
