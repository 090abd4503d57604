(* Columnar TI fact store. See store.mli for the layout contract. *)

module Q = Ipdb_bignum.Q
module Zint = Ipdb_bignum.Zint
module Nat = Ipdb_bignum.Nat
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Metrics = Ipdb_obs.Metrics

let m_index_builds = Metrics.counter "kb.index.builds"

type table = {
  name : string;
  arity : int;
  mutable nrows : int;
  mutable cols : int array array;  (* [arity] columns of length [cap] *)
  mutable pnum : int array;  (* marginal numerator, small-int fast path *)
  mutable pden : int array;  (* denominator; 0 marks a spilled marginal *)
  spill : (int, Q.t) Hashtbl.t;  (* row -> exact marginal, when spilled *)
  (* full-tuple index, maintained incrementally: duplicate rejection and
     ground-atom marginal lookup *)
  seen : (int array, int) Hashtbl.t;
  (* per-mask pattern index (key -> ascending row ids), built lazily on
     first use and dropped on mutation. Slots are Atomic so a build
     publishes safely to concurrently-querying domains; the mutex only
     serialises builders. *)
  index_slots : (int array, int array) Hashtbl.t option Atomic.t array;
  index_mutex : Mutex.t;
  mutable any_index : bool;
}

type t = {
  mutable tables : (string * table) list;  (* name order *)
  interner : (Value.t, int) Hashtbl.t;
  mutable values : Value.t array;  (* id -> value *)
  mutable nvalues : int;
}

(* 2^arity index slots per table; keeps the slot array word-sized *)
let max_arity = 12

let table_create name arity =
  {
    name;
    arity;
    nrows = 0;
    cols = Array.init arity (fun _ -> Array.make 16 0);
    pnum = Array.make 16 0;
    pden = Array.make 16 0;
    spill = Hashtbl.create 4;
    seen = Hashtbl.create 64;
    index_slots = Array.init (1 lsl arity) (fun _ -> Atomic.make None);
    index_mutex = Mutex.create ();
    any_index = false;
  }

let create relations =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, arity) ->
      if arity < 0 || arity > max_arity then
        invalid_arg (Printf.sprintf "Store.create: arity %d for %s outside [0, %d]" arity name max_arity);
      if Hashtbl.mem seen name then invalid_arg ("Store.create: duplicate relation " ^ name);
      Hashtbl.add seen name arity)
    relations;
  let tables =
    List.sort (fun (a, _) (b, _) -> String.compare a b) relations
    |> List.map (fun (name, arity) -> (name, table_create name arity))
  in
  { tables; interner = Hashtbl.create 1024; values = Array.make 1024 Value.Bot; nvalues = 0 }

let declare t name arity =
  match List.assoc_opt name t.tables with
  | Some tbl -> if tbl.arity = arity then Ok () else Error (Printf.sprintf "relation %s redeclared with arity %d (was %d)" name arity tbl.arity)
  | None ->
    if arity < 0 || arity > max_arity then
      Error (Printf.sprintf "arity %d for %s outside [0, %d]" arity name max_arity)
    else begin
      t.tables <-
        List.merge (fun (a, _) (b, _) -> String.compare a b) t.tables [ (name, table_create name arity) ];
      Ok ()
    end

let schema t = List.map (fun (name, tbl) -> (name, tbl.arity)) t.tables

let intern t v =
  match Hashtbl.find_opt t.interner v with
  | Some id -> id
  | None ->
    let id = t.nvalues in
    if id = Array.length t.values then begin
      let bigger = Array.make (2 * id) Value.Bot in
      Array.blit t.values 0 bigger 0 id;
      t.values <- bigger
    end;
    t.values.(id) <- v;
    t.nvalues <- id + 1;
    Hashtbl.add t.interner v id;
    id

let intern_find t v = Hashtbl.find_opt t.interner v
let value_of_id t id = t.values.(id)
let distinct_values t = t.nvalues

let grow_table tbl =
  let cap = Array.length tbl.pnum in
  let bigger a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  tbl.cols <- Array.map bigger tbl.cols;
  tbl.pnum <- bigger tbl.pnum;
  tbl.pden <- bigger tbl.pden

let set_prob tbl row p =
  match (Zint.to_int_opt (Q.num p), Nat.to_int_opt (Q.den p)) with
  | Some n, Some d when d > 0 ->
    tbl.pnum.(row) <- n;
    tbl.pden.(row) <- d
  | _ ->
    tbl.pnum.(row) <- 0;
    tbl.pden.(row) <- 0;
    Hashtbl.replace tbl.spill row p

let row_prob tbl row =
  let d = tbl.pden.(row) in
  (* The stored pair was destructured from a normalised rational in
     [set_prob], so it is coprime with d > 0: rebuilding with
     [of_ints_reduced] skips the per-lookup GCD. (Reference mode
     re-verifies the coprimality contract.) *)
  if d <> 0 then Q.of_ints_reduced tbl.pnum.(row) d else Hashtbl.find tbl.spill row

let row_prob_num tbl row = tbl.pnum.(row)
let row_prob_den tbl row = tbl.pden.(row)

let add t ~rel args p =
  match List.assoc_opt rel t.tables with
  | None -> Error (Printf.sprintf "unknown relation %s" rel)
  | Some tbl ->
    if Array.length args <> tbl.arity then
      Error (Printf.sprintf "relation %s has arity %d, got %d values" rel tbl.arity (Array.length args))
    else if not (Q.is_probability p) then
      Error (Printf.sprintf "marginal %s outside [0, 1]" (Q.to_string p))
    else if Q.is_zero p then Ok () (* a zero marginal carries no information *)
    else begin
      let ids = Array.map (intern t) args in
      if Hashtbl.mem tbl.seen ids then Error (Printf.sprintf "duplicate fact %s" rel)
      else begin
        let row = tbl.nrows in
        if row = Array.length tbl.pnum then grow_table tbl;
        Array.iteri (fun pos col -> col.(row) <- ids.(pos)) tbl.cols;
        set_prob tbl row p;
        Hashtbl.add tbl.seen ids row;
        tbl.nrows <- row + 1;
        (* pattern indexes are snapshots of the row set; invalidate *)
        if tbl.any_index then begin
          Mutex.lock tbl.index_mutex;
          Array.iter (fun slot -> Atomic.set slot None) tbl.index_slots;
          tbl.any_index <- false;
          Mutex.unlock tbl.index_mutex
        end;
        Ok ()
      end
    end

let fact_count t = List.fold_left (fun acc (_, tbl) -> acc + tbl.nrows) 0 t.tables

let spilled t = List.fold_left (fun acc (_, tbl) -> acc + Hashtbl.length tbl.spill) 0 t.tables

let expected_size t =
  (* Batched accumulation: normalisation is deferred until the running
     denominator grows large, then once more at [total]. *)
  let s = Q.Accum.create () in
  List.iter
    (fun (_, tbl) ->
      for row = 0 to tbl.nrows - 1 do
        Q.Accum.add s (row_prob tbl row)
      done)
    t.tables;
  Q.Accum.total s

let marginal t ~rel args =
  match List.assoc_opt rel t.tables with
  | None -> Q.zero
  | Some tbl when Array.length args <> tbl.arity -> Q.zero
  | Some tbl -> (
    let ids = Array.map (fun v -> intern_find t v) args in
    if Array.exists Option.is_none ids then Q.zero
    else begin
      match Hashtbl.find_opt tbl.seen (Array.map Option.get ids) with
      | Some row -> row_prob tbl row
      | None -> Q.zero
    end)

let iter t f =
  List.iter
    (fun (name, tbl) ->
      for row = 0 to tbl.nrows - 1 do
        let args = Array.map (fun col -> t.values.(col.(row))) tbl.cols in
        f name args (row_prob tbl row)
      done)
    t.tables

let to_ti t =
  let facts = ref [] in
  iter t (fun rel args p -> facts := (Fact.make rel (Array.to_list args), p) :: !facts);
  Ipdb_pdb.Ti.Finite.make (Schema.make (schema t)) (List.rev !facts)

(* ------------------------------------------------------------------ *)
(* Query-engine surface                                                *)
(* ------------------------------------------------------------------ *)

type rel_handle = table

let handle t name = List.assoc_opt name t.tables
let handle_arity tbl = tbl.arity
let handle_rows tbl = tbl.nrows
let handle_name tbl = tbl.name
let cell tbl ~row ~pos = tbl.cols.(pos).(row)

let key_of_row tbl mask row =
  let n = ref 0 in
  for pos = 0 to tbl.arity - 1 do
    if mask land (1 lsl pos) <> 0 then incr n
  done;
  let key = Array.make !n 0 in
  let i = ref 0 in
  for pos = 0 to tbl.arity - 1 do
    if mask land (1 lsl pos) <> 0 then begin
      key.(!i) <- tbl.cols.(pos).(row);
      incr i
    end
  done;
  key

let build_index tbl mask =
  Metrics.incr m_index_builds;
  let buckets : (int array, int list) Hashtbl.t = Hashtbl.create (tbl.nrows / 2 + 16) in
  for row = 0 to tbl.nrows - 1 do
    let key = key_of_row tbl mask row in
    let prev = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
    Hashtbl.replace buckets key (row :: prev)
  done;
  let index = Hashtbl.create (Hashtbl.length buckets) in
  Hashtbl.iter
    (fun key rows ->
      (* rows were consed in ascending row order; reverse into place *)
      let arr = Array.of_list rows in
      let n = Array.length arr in
      let rev = Array.init n (fun i -> arr.(n - 1 - i)) in
      Hashtbl.add index key rev)
    buckets;
  index

let index_for tbl mask =
  match Atomic.get tbl.index_slots.(mask) with
  | Some index -> index
  | None ->
    Mutex.lock tbl.index_mutex;
    let index =
      match Atomic.get tbl.index_slots.(mask) with
      | Some index -> index
      | None ->
        let index = build_index tbl mask in
        Atomic.set tbl.index_slots.(mask) (Some index);
        tbl.any_index <- true;
        index
    in
    Mutex.unlock tbl.index_mutex;
    index

let empty_rows = [||]

let rows_matching tbl ~mask ~key =
  match Hashtbl.find_opt (index_for tbl mask) key with
  | Some rows -> rows
  | None -> empty_rows
