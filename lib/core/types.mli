(** Shared record types of the load-balancing scheme. *)

module Dht = P2plb_chord.Dht

type node_id = int

(** Load-balancing information, [<L, C, L_min>] (paper §3.2): total
    load, total capacity, and the minimum virtual-server load of the
    subtree (or node) it describes. *)
type lbi = { l : float; c : float; l_min : float }

val lbi_combine : lbi -> lbi -> lbi

(** A virtual server a heavy node offers to shed:
    [<L_{i,k}, v_{i,k}, ip_addr(i)>] (§3.4).  [vs] is the ring's own
    record of [v_{i,k}], a handle (see {!Dht.on_ring}): while the VS
    is on the ring, its [owner] is current, and no ring search finds
    it again. *)
type shed_vs = { vs_load : float; vs : Dht.vs; heavy_node : node_id }

(** A light node's spare capacity: [<ΔL_j, ip_addr(j)>] (§3.4). *)
type light_slot = { deficit : float; light_node : node_id }

(** VSA information as published into the DHT by the proximity-aware
    scheme (§4.3). *)
type vsa_record = Shed of shed_vs | Light of light_slot

(** A paired assignment produced by a rendezvous KT node, sent to both
    endpoints for virtual-server transferring.  [a_depth] records the
    KT depth of the rendezvous that made the pair (root = 0, leaves
    deepest) — the deeper, the more identifier-space-local the match.
    [a_vs] is the shed VS's handle. *)
type assignment = {
  a_vs : Dht.vs;
  a_load : float;
  a_from : node_id;
  a_to : node_id;
  a_depth : int;
}

type node_class = Heavy | Light | Neutral
