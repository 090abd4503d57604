module Q = Ipdb_bignum.Q
module Value = Ipdb_relational.Value
module Schema = Ipdb_relational.Schema
module Fact = Ipdb_relational.Fact
module Instance = Ipdb_relational.Instance

(* ------------------------------------------------------------------ *)
(* A tiny s-expression layer                                           *)
(* ------------------------------------------------------------------ *)

type sexp =
  | Atom of string
  | List of sexp list

exception Bad of string

let tokenize s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\n' || c = '\t' || c = '\r' then incr i
    else if c = '(' then begin
      out := `L :: !out;
      incr i
    end
    else if c = ')' then begin
      out := `R :: !out;
      incr i
    end
    else if c = '"' then begin
      let j = ref (!i + 1) in
      let buf = Buffer.create 8 in
      let closed = ref false in
      while (not !closed) && !j < n do
        if s.[!j] = '\\' && !j + 1 < n then begin
          Buffer.add_char buf s.[!j + 1];
          j := !j + 2
        end
        else if s.[!j] = '"' then closed := true
        else begin
          Buffer.add_char buf s.[!j];
          incr j
        end
      done;
      if not !closed then raise (Bad "unterminated string");
      out := `A ("\"" ^ Buffer.contents buf) :: !out;
      i := !j + 1
    end
    else begin
      let j = ref !i in
      while !j < n && s.[!j] <> ' ' && s.[!j] <> '(' && s.[!j] <> ')' && s.[!j] <> '\n' && s.[!j] <> '\t' && s.[!j] <> '\r' do
        incr j
      done;
      out := `A (String.sub s !i (!j - !i)) :: !out;
      i := !j
    end
  done;
  List.rev !out

let parse_sexp s =
  let tokens = ref (tokenize s) in
  let rec one () =
    match !tokens with
    | [] -> raise (Bad "unexpected end of input")
    | `A a :: rest ->
      tokens := rest;
      Atom a
    | `L :: rest ->
      tokens := rest;
      let items = ref [] in
      let rec collect () =
        match !tokens with
        | `R :: rest ->
          tokens := rest;
          List (List.rev !items)
        | [] -> raise (Bad "unclosed parenthesis")
        | _ ->
          items := one () :: !items;
          collect ()
      in
      collect ()
    | `R :: _ -> raise (Bad "unexpected )")
  in
  let result = one () in
  if !tokens <> [] then raise (Bad "trailing input");
  result

let rec sexp_to_string = function
  | Atom a -> a
  | List items -> "(" ^ String.concat " " (List.map sexp_to_string items) ^ ")"

(* ------------------------------------------------------------------ *)
(* Values and facts                                                    *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec value_to_sexp (v : Value.t) : sexp =
  match v with
  | Value.Int n -> Atom (string_of_int n)
  | Value.Str s -> Atom ("\"" ^ escape s ^ "\"")
  | Value.Bot -> Atom "bot"
  | Value.Pair (a, b) -> List [ Atom "pair"; value_to_sexp a; value_to_sexp b ]

let rec value_of_sexp = function
  | Atom "bot" -> Value.Bot
  | Atom a when String.length a > 0 && a.[0] = '"' -> Value.Str (String.sub a 1 (String.length a - 1))
  | Atom a -> (
    match int_of_string_opt a with
    | Some n -> Value.Int n
    | None -> raise (Bad ("not a value: " ^ a)))
  | List [ Atom "pair"; a; b ] -> Value.Pair (value_of_sexp a, value_of_sexp b)
  | s -> raise (Bad ("not a value: " ^ sexp_to_string s))

let fact_to_sexp f = List (Atom (Fact.rel f) :: List.map value_to_sexp (Fact.args f))

let fact_of_sexp = function
  | List (Atom rel :: args) -> Fact.make rel (List.map value_of_sexp args)
  | s -> raise (Bad ("not a fact: " ^ sexp_to_string s))

let value_to_string v = sexp_to_string (value_to_sexp v)
let fact_to_string f = sexp_to_string (fact_to_sexp f)

let schema_to_sexp schema =
  List (Atom "schema" :: List.map (fun (r, a) -> List [ Atom r; Atom (string_of_int a) ]) (Schema.relations schema))

let schema_of_sexp = function
  | List (Atom "schema" :: rels) ->
    Schema.make
      (List.map
         (function
           | List [ Atom r; Atom a ] -> (
             match int_of_string_opt a with
             | Some a -> (r, a)
             | None -> raise (Bad ("bad arity for " ^ r)))
           | s -> raise (Bad ("not a relation declaration: " ^ sexp_to_string s)))
         rels)
  | s -> raise (Bad ("not a schema: " ^ sexp_to_string s))

let prob_of_atom = function
  | Atom a -> ( try Q.of_string a with _ -> raise (Bad ("not a probability: " ^ a)))
  | s -> raise (Bad ("not a probability: " ^ sexp_to_string s))

let weighted_fact_to_sexp (f, p) = List [ fact_to_sexp f; Atom (Q.to_string p) ]

let weighted_fact_of_sexp = function
  | List [ f; p ] -> (fact_of_sexp f, prob_of_atom p)
  | s -> raise (Bad ("not a (fact prob) pair: " ^ sexp_to_string s))

(* ------------------------------------------------------------------ *)
(* Top-level forms                                                     *)
(* ------------------------------------------------------------------ *)

(* The corruption boundary: any exception escaping a parser — our own [Bad],
   [Invalid_argument] from constructors, [Division_by_zero] from a corrupted
   rational like "1/0", stack overflow on adversarial nesting — must become
   [Error], never propagate. *)
let wrap f s =
  try Ok (f (parse_sexp s)) with
  | Bad m -> Error m
  | Invalid_argument m | Failure m -> Error m
  | Division_by_zero -> Error "division by zero in a probability"
  | Stack_overflow -> Error "input too deeply nested"

let ti_to_string ti =
  sexp_to_string
    (List
       (Atom "ti" :: schema_to_sexp (Ti.Finite.schema ti)
       :: List.map weighted_fact_to_sexp (Ti.Finite.facts ti)))

let ti_of_string =
  wrap (function
    | List (Atom "ti" :: schema :: facts) ->
      Ti.Finite.make (schema_of_sexp schema) (List.map weighted_fact_of_sexp facts)
    | s -> raise (Bad ("not a ti form: " ^ sexp_to_string s)))

let bid_to_string bid =
  sexp_to_string
    (List
       (Atom "bid" :: schema_to_sexp (Bid.Finite.schema bid)
       :: List.map
            (fun block -> List (Atom "block" :: List.map weighted_fact_to_sexp block))
            (Bid.Finite.blocks bid)))

let bid_of_string =
  wrap (function
    | List (Atom "bid" :: schema :: blocks) ->
      Bid.Finite.make (schema_of_sexp schema)
        (List.map
           (function
             | List (Atom "block" :: facts) -> List.map weighted_fact_of_sexp facts
             | s -> raise (Bad ("not a block: " ^ sexp_to_string s)))
           blocks)
    | s -> raise (Bad ("not a bid form: " ^ sexp_to_string s)))

let pdb_to_string d =
  sexp_to_string
    (List
       (Atom "pdb" :: schema_to_sexp (Finite_pdb.schema d)
       :: List.map
            (fun (world, p) ->
              List (Atom "world" :: Atom (Q.to_string p) :: List.map fact_to_sexp (Instance.to_list world)))
            (Finite_pdb.support d)))

let pdb_of_string =
  wrap (function
    | List (Atom "pdb" :: schema :: worlds) ->
      Finite_pdb.make (schema_of_sexp schema)
        (List.map
           (function
             | List (Atom "world" :: p :: facts) ->
               (Instance.of_list (List.map fact_of_sexp facts), prob_of_atom p)
             | s -> raise (Bad ("not a world: " ^ sexp_to_string s)))
           worlds)
    | s -> raise (Bad ("not a pdb form: " ^ sexp_to_string s)))

(* Canonical bytes for a (family, query, precision) request, the preimage
   of the serve layer's content-addressed verdict cache: parameters are
   sorted by name and values quoted, so any two syntactic spellings of the
   same request serialise to identical bytes. *)
let canonical_key ~op params =
  let params = List.sort (fun (a, _) (b, _) -> compare a b) params in
  sexp_to_string
    (List
       (Atom "req" :: Atom op
       :: List.map (fun (k, v) -> List [ Atom k; Atom ("\"" ^ escape v ^ "\"") ]) params))

let load ~path =
  Result.map_error (fun msg -> Ipdb_run.Error.Io { path; msg }) (Ioutil.read_file path)
