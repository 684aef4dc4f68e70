module Dht = P2plb_chord.Dht

(** Node classification (paper §3.3).

    Given the system-wide [<L, C, L_min>], node [i]'s target load is
    [T_i = (L / C + epsilon) * C_i]: its fair share of the total load
    in proportion to its capacity, relaxed by [epsilon] (a trade-off
    knob between the amount of load moved and the quality of balance;
    ideally 0).  Then node [i] is

    - {b heavy} if [L_i > T_i];
    - {b light} if [T_i - L_i >= L_min] (it can absorb at least the
      smallest virtual server in the system without turning heavy);
    - {b neutral} otherwise ([0 <= T_i - L_i < L_min]). *)

val target_load : lbi:Types.lbi -> epsilon:float -> capacity:float -> float

val classify :
  lbi:Types.lbi -> epsilon:float -> load:float -> capacity:float ->
  Types.node_class

val classify_node :
  lbi:Types.lbi -> epsilon:float -> Dht.node -> Types.node_class
(** {!classify} on the node's current load and capacity. *)

val census :
  lbi:Types.lbi -> epsilon:float -> Dht.t -> int * int * int
(** [(heavy, light, neutral)] counts over alive nodes. *)
