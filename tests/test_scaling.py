"""The tableau on models larger than the corpus: a 16-resource tree with 8
states, a clash two associations below the root, and a size bound far above
the node limit."""
from __future__ import annotations

import time

from conftest import run_cli

from restcheck.checker import check_model

# A binary tree of 16 resources.  Every state starts with its own status
# value, so no two invariants can hold at one order and the states'
# disjointness empties none of them; every invariant has a model with one
# successor per association it names.
SHOP = """\
resources Shop {
  root resource Order {
    attr status: string
    attr paid: boolean
    attr total: integer
  }
  resource Customer {
    attr name: string
    attr vip: boolean
  }
  collection lines
  resource Address {
    attr city: string
    attr zip: integer
  }
  resource Account {
    attr login: string
    attr active: boolean
  }
  resource Line {
    attr qty: integer
    attr sku: string
  }
  resource Discount {
    attr percent: integer
    attr stackable: boolean
  }
  resource Region {
    attr code: string
    attr taxed: boolean
  }
  resource Geo {
    attr lat: integer
    attr lon: integer
  }
  collection sessions
  resource Profile {
    attr bio: string
    attr public: boolean
  }
  resource Product {
    attr title: string
    attr stock: integer
  }
  resource Shipment {
    attr carrier: string
    attr tracked: boolean
  }
  resource Coupon {
    attr token: string
    attr used: boolean
  }
  resource Campaign {
    attr label: string
    attr budget: integer
  }
  resource Session {
    attr started: integer
    attr secure: boolean
  }
  association customer: Order -> Customer [1..1]
  association lines: Order -> lines [1..1]
  association address: Customer -> Address [1..2]
  association account: Customer -> Account [0..1]
  association line: lines -> Line [1..*]
  association discount: lines -> Discount [0..2]
  association area: Address -> Region [1..1]
  association geo: Address -> Geo [0..1]
  association sessions: Account -> sessions [1..1]
  association profile: Account -> Profile [0..1]
  association product: Line -> Product [1..1]
  association shipment: Line -> Shipment [0..*]
  association coupon: Discount -> Coupon [1..1]
  association campaign: Discount -> Campaign [0..1]
  association session: sessions -> Session [0..*]
}

behavior Fulfilment for Order {
  initial start
  state created { inv: "self.status = \\"created\\" and (self.lines.line->size() >= 2 or self.paid = False) and self.customer.address->size() <= 2" }
  state priced { inv: "self.status = \\"priced\\" and (self.lines.discount->size() <= 1 or self.total = 0) and self.lines.line->size() = 2" }
  state paid { inv: "self.status = \\"paid\\" and (self.paid = True or self.total = 0) and self.customer.account->size() = 1" }
  state packed { inv: "self.status = \\"packed\\" and (self.customer.vip = True or self.lines.line->size() >= 3) and self.customer.address->size() = 2" }
  state shipped { inv: "self.status = \\"shipped\\" and (self.customer.account->size() = 0 or self.customer.name = \\"x\\") and self.lines.line->size() >= 2" }
  state delivered { inv: "self.status = \\"delivered\\" and (self.customer.account->size() = 1 or self.paid = True) and self.lines.discount->size() = 2" }
  state returned { inv: "self.status = \\"returned\\" and (self.customer.address->size() = 1 or self.customer.vip = False) and self.lines.line->size() <= 3" }
  state archived { inv: "self.status = \\"archived\\" and (self.lines.discount->size() >= 1 or self.total = 5) and self.customer.address.city = \\"Oslo\\"" }
  final closed
  transition start -> created on POST Order
  transition created -> priced on PUT
  transition priced -> paid on PUT
  transition paid -> packed on PUT
  transition packed -> shipped on PUT
  transition shipped -> delivered on PUT
  transition delivered -> returned on PUT
  transition returned -> archived on PUT
  transition archived -> closed on DELETE
}
"""

# `address` allows at most two addresses per customer, so no order reaches
# three through its one customer.  The clash lies two hops below the root.
DEEP = SHOP.replace("self.customer.address->size() = 2",
                    "self.customer.address->size() >= 3")


def test_sixteen_resources_eight_states_all_satisfiable():
    out = check_model(SHOP, "shop.model")
    assert out.exit_code == 0
    assert len(out.report.concepts) == 16 + 9
    assert all(c.satisfiable for c in out.report.concepts)


def test_two_hop_size_bound_clashes_with_multiplicity():
    assert DEEP != SHOP
    out = check_model(DEEP, "deep.model")
    assert out.exit_code == 1
    unsat = [(c.kind, c.element) for c in out.report.concepts if not c.satisfiable]
    assert unsat == [("state", "packed")]


# One root whose only state asks for 6000 successors along an unbounded
# association.  The tableau stands for them with one counted node, so the
# graph stays small however large the bound.
MANY = """\
resources Big {
  root resource R { attr name: string }
  resource C { attr v: integer }
  association c: R -> C [0..*]
}

behavior Life for R {
  initial start
  state many { inv: "self.c->size() >= 6000" }
  transition start -> many on POST R
}
"""


def test_size_bound_above_the_node_limit_is_satisfiable(tmp_path):
    for bound in ("6000", "1000000"):
        path = tmp_path / f"many{bound}.model"
        path.write_text(MANY.replace("6000", bound))
        start = time.perf_counter()
        proc = run_cli("check", str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "CONSISTENT: 2 resources, 1 states, all satisfiable"
        assert "Traceback" not in proc.stderr
        assert time.perf_counter() - start < 5


def test_cut_off_witness_is_not_held_against_the_search(tmp_path):
    # the witness of 6000 successors passes the node limit, so it is cut off
    # and marked not faithful; only a faithful one can contradict the search
    path = tmp_path / "many.model"
    path.write_text(MANY)
    proc = run_cli("check", "--oracle", "bounded:3", str(path))
    assert proc.returncode == 0, proc.stdout
    assert proc.stderr == ""


def test_size_bound_above_the_multiplicity_clashes():
    out = check_model(MANY.replace("[0..*]", "[0..3]"), "few.model")
    assert out.exit_code == 1
    unsat = [(c.kind, c.element) for c in out.report.concepts if not c.satisfiable]
    assert unsat == [("state", "many")]
