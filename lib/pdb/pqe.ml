module Value = Ipdb_relational.Value
module Fo = Ipdb_logic.Fo

type cq_atom = { rel : string; args : Fo.term list }
type cq = { exists : Fo.var list; atoms : cq_atom list }

let atom_vars a =
  List.filter_map (fun t -> match t with Fo.V x -> Some x | Fo.C _ -> None) a.args

let cq_of_formula phi =
  let rec peel acc = function
    | Fo.Exists (x, f) -> peel (x :: acc) f
    | f -> (List.rev acc, f)
  in
  let exists, matrix = peel [] phi in
  let rec conjuncts = function
    | Fo.And (f, g) -> Option.bind (conjuncts f) (fun a -> Option.map (fun b -> a @ b) (conjuncts g))
    | Fo.Atom (rel, args) -> Some [ { rel; args } ]
    | Fo.True -> Some []
    | _ -> None
  in
  match conjuncts matrix with
  | None -> None
  | Some atoms ->
    let vars = List.concat_map atom_vars atoms in
    if List.for_all (fun x -> List.mem x exists) vars then Some { exists; atoms } else None

let cq_to_formula q =
  Fo.exists_many q.exists (Fo.conj (List.map (fun a -> Fo.Atom (a.rel, a.args)) q.atoms))

module SS = Set.Make (String)

let is_self_join_free q =
  let rec go seen = function
    | [] -> true
    | a :: rest -> if SS.mem a.rel seen then false else go (SS.add a.rel seen) rest
  in
  go SS.empty q.atoms

let atoms_of_var q x =
  List.filteri (fun _ a -> List.mem x (atom_vars a)) q.atoms
  |> List.map (fun a -> a.rel)
  |> List.sort_uniq String.compare

let is_hierarchical q =
  let vars = List.sort_uniq String.compare (List.concat_map atom_vars q.atoms) in
  List.for_all
    (fun x ->
      List.for_all
        (fun y ->
          let ax = SS.of_list (atoms_of_var q x) and ay = SS.of_list (atoms_of_var q y) in
          SS.subset ax ay || SS.subset ay ax || SS.is_empty (SS.inter ax ay))
        vars)
    vars

let boolean_probability_exact ti phi =
  let d = Ti.Finite.to_finite_pdb ti in
  Finite_pdb.prob_sentence d phi

(* Connected components of an atom list under shared variables; ground
   atoms come out as singleton components. *)
let components atoms =
  let rec grow comp comp_vars rest =
    let touching, others =
      List.partition (fun a -> List.exists (fun x -> SS.mem x comp_vars) (atom_vars a)) rest
    in
    if touching = [] then (comp, rest)
    else
      grow (comp @ touching)
        (List.fold_left (fun acc a -> List.fold_left (fun acc x -> SS.add x acc) acc (atom_vars a)) comp_vars touching)
        others
  in
  let rec split = function
    | [] -> []
    | a :: rest ->
      let comp, others = grow [ a ] (SS.of_list (atom_vars a)) rest in
      comp :: split others
  in
  split atoms

(* ------------------------------------------------------------------ *)
(* Unions of conjunctive queries                                       *)
(* ------------------------------------------------------------------ *)

type ucq = cq list

let max_union_terms = 10

let cq_vars q = List.sort_uniq String.compare (List.concat_map atom_vars q.atoms)

let ucq_to_formula ucq = Fo.disj (List.map cq_to_formula ucq)

let rename_atom_var x y a =
  { a with args = List.map (function Fo.V z when String.equal z x -> Fo.V y | t -> t) a.args }

let freshen taken stem =
  let rec go i =
    let v = Printf.sprintf "%s#%d" stem i in
    if SS.mem v taken then go (i + 1) else v
  in
  go 0

(* Rename each bound variable of [q] that lies in [avoid]; fresh names
   steer clear of [taken]. Within a CQ a name in [exists] binds all its
   occurrences, so renaming every occurrence is capture-free. *)
let rename_bound_avoiding q avoid taken =
  List.fold_left
    (fun (q, taken) x ->
      if SS.mem x avoid then begin
        let y = freshen taken x in
        ( {
            exists = List.map (fun z -> if String.equal z x then y else z) q.exists;
            atoms = List.map (rename_atom_var x y) q.atoms;
          },
          SS.add y taken )
      end
      else (q, taken))
    (q, taken) q.exists

(* Conjunction of two CQs with bound variables renamed apart; free
   variables stay shared (they refer to binders in the context). *)
let conj2 q1 q2 =
  let v1 = SS.of_list (cq_vars q1 @ q1.exists) in
  let v2 = SS.of_list (cq_vars q2 @ q2.exists) in
  let taken = SS.union v1 v2 in
  let q1, taken = rename_bound_avoiding q1 v2 taken in
  let v1' = SS.of_list (cq_vars q1 @ q1.exists) in
  let q2, _ = rename_bound_avoiding q2 v1' taken in
  { exists = q1.exists @ q2.exists; atoms = q1.atoms @ q2.atoms }

let conjoin_cqs = function
  | [] -> { exists = []; atoms = [] }
  | q :: rest -> List.fold_left conj2 q rest

let ucq_of_formula phi =
  if not (Fo.is_sentence phi) then None
  else begin
    let gate = 64 in
    (* [go] keeps the invariant that a CQ's [exists] lists the variables
       bound inside the subformula; the remaining atom variables are free
       and shared with the enclosing context. *)
    let rec go phi =
      match phi with
      | Fo.True -> Some [ { exists = []; atoms = [] } ]
      | Fo.False -> Some []
      | Fo.Atom (rel, args) -> Some [ { exists = []; atoms = [ { rel; args } ] } ]
      | Fo.Or (f, g) -> two f g (fun a b -> a @ b)
      | Fo.And (f, g) -> two f g (fun a b -> List.concat_map (fun q1 -> List.map (conj2 q1) b) a)
      | Fo.Exists (x, f) ->
        Option.map
          (List.map (fun q ->
               if List.mem x q.exists || not (List.mem x (cq_vars q)) then q
               else { q with exists = x :: q.exists }))
          (go f)
      | _ -> None
    and two f g k =
      match (go f, go g) with
      | Some a, Some b ->
        let r = k a b in
        if List.length r > gate then None else Some r
      | _ -> None
    in
    match go phi with
    | Some cqs when List.for_all (fun q -> List.for_all (fun x -> List.mem x q.exists) (cq_vars q)) cqs
      -> Some cqs
    | _ -> None
  end

(* Canonical serialisation of one connected component: atoms stably
   sorted by a name-free skeleton, variables renumbered by first
   occurrence. Renamed-apart copies of one CQ share relative atom order
   and an order-preserving variable map, so they canonicalise equal. *)
let canon_component atoms =
  let skeleton a =
    a.rel ^ "("
    ^ String.concat "," (List.map (function Fo.C v -> "c:" ^ Value.to_string v | Fo.V _ -> "?") a.args)
    ^ ")"
  in
  let atoms = List.stable_sort (fun a b -> compare (skeleton a) (skeleton b)) atoms in
  let map = Hashtbl.create 8 in
  let next = ref 0 in
  let arg = function
    | Fo.C v -> "c:" ^ Value.to_string v
    | Fo.V x -> (
      match Hashtbl.find_opt map x with
      | Some i -> Printf.sprintf "v%d" i
      | None ->
        let i = !next in
        incr next;
        Hashtbl.add map x i;
        Printf.sprintf "v%d" i)
  in
  String.concat "&" (List.map (fun a -> a.rel ^ "(" ^ String.concat "," (List.map arg a.args) ^ ")") atoms)

let canon_cq q =
  String.concat "|" (List.sort compare (List.map canon_component (components q.atoms)))

(* Drop duplicate atoms and duplicate-up-to-renaming components:
   [P(C ∧ C') = P(C)] when [C'] is a variable renaming of [C], which is
   exactly what inclusion–exclusion conjunctions of overlapping union
   terms produce. *)
let normalize_closed_cq q =
  let atoms = List.sort_uniq compare q.atoms in
  let seen = Hashtbl.create 8 in
  let comps =
    List.filter
      (fun c ->
        let k = canon_component c in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (components atoms)
  in
  let atoms = List.concat comps in
  let vars = List.sort_uniq String.compare (List.concat_map atom_vars atoms) in
  { exists = List.filter (fun x -> List.mem x vars) q.exists; atoms }

let dedupe_ucq ucq =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun q ->
      let k = canon_cq (normalize_closed_cq q) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    ucq
