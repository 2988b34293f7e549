//! No-op derives: the workspace derives `Serialize`/`Deserialize` on its
//! value types but every codec it ships is hand-rolled, so nothing ever
//! requires the impls.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
