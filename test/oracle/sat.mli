(** The persistent-map DPLL, the differential oracle for
    {!Argus_logic.Sat.solve}. *)

val solve : Argus_logic.Sat.cnf -> (string * bool) list option
(** Unit propagation + pure-literal elimination, clause lists rebuilt
    per decision.  Equivalent to {!Argus_logic.Sat.solve} on
    satisfiability.  Does not touch the engine counters. *)
